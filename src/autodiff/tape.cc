#include "autodiff/tape.h"

#include <memory>
#include <utility>
#include <vector>

namespace cerl::autodiff {
namespace {

// The calling thread's idle tapes. Leases nest LIFO (a training loop holds
// its tape while the validation callback leases another), so the pool never
// holds more tapes than the deepest nesting seen on the thread.
std::vector<std::unique_ptr<Tape>>& IdleTapes() {
  thread_local std::vector<std::unique_ptr<Tape>> idle;
  return idle;
}

}  // namespace

TapeLease::TapeLease() {
  std::vector<std::unique_ptr<Tape>>& idle = IdleTapes();
  if (idle.empty()) {
    tape_ = std::make_unique<Tape>();
  } else {
    tape_ = std::move(idle.back());
    idle.pop_back();
  }
}

TapeLease::~TapeLease() {
  tape_->Reset();
  IdleTapes().push_back(std::move(tape_));
}

const Matrix& Var::value() const {
  CERL_CHECK(valid());
  return tape_->ValueOf(id_);
}

const Matrix& Var::grad() const {
  CERL_CHECK(valid());
  return tape_->GradRef(id_);
}

double Var::scalar() const {
  const Matrix& v = value();
  CERL_CHECK(v.rows() == 1 && v.cols() == 1);
  return v(0, 0);
}

void Tape::Reset() {
  size_ = 0;
  index_size_ = 0;
  bindings_.clear();  // capacity retained
  ++gen_;             // logically invalidates every node's gradient
}

Tape::Node& Tape::ClaimSlot() {
  if (size_ == static_cast<int>(nodes_.size())) nodes_.emplace_back();
  Node& node = nodes_[size_++];
  node.alias = nullptr;
  node.requires_grad = false;
  node.kernel = nullptr;
  node.ctx = BackwardCtx();
  return node;
}

template <typename M>
Var Tape::ConstantImpl(M&& value) {
  // `value` may reference another node's matrix (detach patterns like
  // Constant(v.value())): when appending would grow the arena and move the
  // nodes, the copy must happen before the growth.
  if (size_ == static_cast<int>(nodes_.size())) {
    Node node;
    node.value = std::forward<M>(value);
    ++arena_allocations_;
    nodes_.push_back(std::move(node));
    ++size_;
  } else {
    Node& node = ClaimSlot();
    if (value.size() <= node.value.capacity()) {
      node.value.Resize(value.rows(), value.cols());
      node.value.CopyFrom(value);  // keep the retained buffer
    } else {
      node.value = std::forward<M>(value);
      ++arena_allocations_;
    }
  }
  return Var(this, size_ - 1);
}

Var Tape::Constant(const Matrix& value) { return ConstantImpl(value); }

Var Tape::Constant(Matrix&& value) { return ConstantImpl(std::move(value)); }

Var Tape::ConstantView(const Matrix* value) {
  CERL_CHECK(value != nullptr);
  Node& node = ClaimSlot();
  node.alias = value;
  return Var(this, size_ - 1);
}

Var Tape::Leaf(const Matrix& value) {
  Var v = Constant(value);
  nodes_[v.id()].requires_grad = true;
  return v;
}

Var Tape::Leaf(Matrix&& value) {
  Var v = Constant(std::move(value));
  nodes_[v.id()].requires_grad = true;
  return v;
}

Var Tape::Param(Parameter* p) {
  CERL_CHECK(p != nullptr);
  Var v = ConstantView(&p->value);
  nodes_[v.id()].requires_grad = true;
  bindings_.emplace_back(v.id(), p);
  return v;
}

Var Tape::NewNode(int rows, int cols, BackwardKernel kernel,
                  const BackwardCtx& ctx, Matrix** out) {
  CERL_DCHECK(ctx.a < size_ && ctx.b < size_ && ctx.c < size_);
  Node& node = ClaimSlot();
  node.ctx = ctx;
  node.requires_grad = (ctx.a >= 0 && nodes_[ctx.a].requires_grad) ||
                       (ctx.b >= 0 && nodes_[ctx.b].requires_grad) ||
                       (ctx.c >= 0 && nodes_[ctx.c].requires_grad);
  if (node.requires_grad) node.kernel = kernel;
  if (node.value.rows() != rows || node.value.cols() != cols) {
    // In place and without zero-fill: the op overwrites the whole buffer.
    if (static_cast<int64_t>(rows) * cols > node.value.capacity()) {
      ++arena_allocations_;
    }
    node.value.Resize(rows, cols);
  }
  *out = &node.value;
  return Var(this, size_ - 1);
}

Matrix& Tape::GradRef(int id) {
  CERL_CHECK(id >= 0 && id < size_);
  Node& node = nodes_[id];
  if (node.grad_gen != gen_) {
    const Matrix& v = ValueOf(id);
    if (!node.grad.SameShape(v)) {
      if (v.size() > node.grad.capacity()) ++arena_allocations_;
      node.grad.Resize(v.rows(), v.cols());
    }
    node.grad.Fill(0.0);  // backward kernels accumulate into it
    node.grad_gen = gen_;
  }
  return node.grad;
}

int Tape::StoreIndices(const int* idx, int n) {
  const int offset = index_size_;
  if (index_size_ + n > static_cast<int>(index_pool_.size())) {
    index_pool_.resize(index_size_ + n);
  }
  std::copy(idx, idx + n, index_pool_.begin() + offset);
  index_size_ += n;
  return offset;
}

void Tape::Backward(const Var& root) {
  CERL_CHECK(root.valid() && root.tape() == this);
  const Matrix& rv = ValueOf(root.id());
  CERL_CHECK_MSG(rv.rows() == 1 && rv.cols() == 1,
                 "Backward root must be a scalar");
  GradRef(root.id())(0, 0) = 1.0;
  for (int id = root.id(); id >= 0; --id) {
    Node& node = nodes_[id];
    if (!node.requires_grad || node.kernel == nullptr) continue;
    if (node.grad_gen != gen_) continue;  // No gradient flowed to this node.
    node.kernel(this, id, node.ctx);
  }
  for (const auto& [id, param] : bindings_) {
    if (nodes_[id].grad_gen != gen_) continue;
    if (!param->grad.SameShape(param->value)) param->ZeroGrad();
    param->grad.Add(nodes_[id].grad);
  }
}

}  // namespace cerl::autodiff
