#include "merge/search_tree.h"

namespace mlcask::merge {

namespace {

void CountNodes(const TreeNode& node, size_t* nodes, size_t* leaves) {
  for (const auto& child : node.children) {
    *nodes += 1;
    if (child->is_leaf()) *leaves += 1;
    CountNodes(*child, nodes, leaves);
  }
}

size_t PruneNode(TreeNode* node, const CompatLut& lut, size_t final_level) {
  size_t removed = 0;
  auto& children = node->children;
  for (auto it = children.begin(); it != children.end();) {
    TreeNode* child = it->get();
    bool incompatible =
        node->spec != nullptr && !lut.Compatible(*node->spec, *child->spec);
    if (incompatible) {
      // Count the whole subtree we are dropping.
      size_t sub_nodes = 1, sub_leaves = 0;
      CountNodes(*child, &sub_nodes, &sub_leaves);
      removed += sub_nodes;
      it = children.erase(it);
      continue;
    }
    removed += PruneNode(child, lut, final_level);
    // A non-final node whose children were all pruned cannot complete a
    // pipeline; drop it too.
    if (child->children.empty() &&
        static_cast<size_t>(child->level) + 1 != final_level) {
      removed += 1;
      it = children.erase(it);
      continue;
    }
    ++it;
  }
  return removed;
}

size_t MarkNode(TreeNode* node, CandidateChain* chain,
                const std::function<bool(const CandidateChain&)>& has_checkpoint) {
  size_t marked = 0;
  for (auto& child : node->children) {
    chain->push_back(child->spec);
    if (!child->executed && has_checkpoint(*chain)) {
      child->executed = true;
      ++marked;
    }
    marked += MarkNode(child.get(), chain, has_checkpoint);
    chain->pop_back();
  }
  return marked;
}

void Enumerate(const TreeNode& node, CandidateChain* chain,
               std::vector<CandidateChain>* out) {
  if (node.is_leaf() && node.spec != nullptr) {
    out->push_back(*chain);
    return;
  }
  for (const auto& child : node.children) {
    chain->push_back(child->spec);
    Enumerate(*child, chain, out);
    chain->pop_back();
  }
}

}  // namespace

StatusOr<pipeline::Pipeline> ChainPipeline(const std::string& name,
                                           const CandidateChain& chain) {
  std::vector<pipeline::ComponentVersionSpec> specs;
  specs.reserve(chain.size());
  for (const pipeline::ComponentVersionSpec* s : chain) specs.push_back(*s);
  return pipeline::Pipeline::Chain(name, std::move(specs));
}

PipelineSearchTree PipelineSearchTree::Build(const SearchSpace& space) {
  PipelineSearchTree tree;
  tree.root_ = std::make_unique<TreeNode>();
  tree.root_->executed = true;  // virtual root, per Algorithm 1
  tree.num_levels_ = space.components.size();

  // Level-order expansion: every node at level i-1 gets a child per version
  // in S(f_i).
  std::vector<TreeNode*> frontier{tree.root_.get()};
  for (size_t level = 0; level < space.components.size(); ++level) {
    std::vector<TreeNode*> next;
    for (TreeNode* parent : frontier) {
      for (const pipeline::ComponentVersionSpec& spec :
           space.components[level].versions) {
        auto child = std::make_unique<TreeNode>();
        child->spec = &spec;
        child->level = static_cast<int>(level);
        next.push_back(child.get());
        parent->children.push_back(std::move(child));
      }
    }
    frontier = std::move(next);
  }
  return tree;
}

size_t PipelineSearchTree::NumNodes() const {
  size_t nodes = 0, leaves = 0;
  CountNodes(*root_, &nodes, &leaves);
  return nodes;
}

size_t PipelineSearchTree::NumLeaves() const {
  size_t nodes = 0, leaves = 0;
  CountNodes(*root_, &nodes, &leaves);
  return leaves;
}

size_t PipelineSearchTree::PruneIncompatible(const CompatLut& lut) {
  return PruneNode(root_.get(), lut, num_levels_);
}

size_t PipelineSearchTree::MarkCheckpoints(
    const std::function<bool(const CandidateChain&)>& has_checkpoint) {
  CandidateChain chain;
  return MarkNode(root_.get(), &chain, has_checkpoint);
}

std::vector<CandidateChain> PipelineSearchTree::Candidates() const {
  std::vector<CandidateChain> out;
  CandidateChain chain;
  Enumerate(*root_, &chain, &out);
  return out;
}

std::vector<const TreeNode*> PipelineSearchTree::Leaves() const {
  std::vector<const TreeNode*> out;
  std::function<void(const TreeNode&)> walk = [&](const TreeNode& node) {
    if (node.is_leaf() && node.spec != nullptr) {
      out.push_back(&node);
      return;
    }
    for (const auto& child : node.children) walk(*child);
  };
  walk(*root_);
  return out;
}

std::unordered_map<const TreeNode*, const TreeNode*>
PipelineSearchTree::ParentIndex() const {
  std::unordered_map<const TreeNode*, const TreeNode*> parent;
  parent[root_.get()] = nullptr;
  std::function<void(const TreeNode&)> walk = [&](const TreeNode& node) {
    for (const auto& child : node.children) {
      parent[child.get()] = &node;
      walk(*child);
    }
  };
  walk(*root_);
  return parent;
}

}  // namespace mlcask::merge
