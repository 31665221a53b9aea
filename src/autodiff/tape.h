// Tape-based reverse-mode automatic differentiation over dense matrices.
//
// A Tape owns an arena of nodes; each op appends a node whose backward
// kernel scatters the node's gradient into its dependencies. Because
// dependencies always precede their consumers in the arena, reverse
// insertion order is a valid reverse-topological order.
//
// The arena is reusable and capacity-retaining: Tape::Reset() rewinds the
// tape to empty while retaining every node's value/grad Matrix buffer, the
// parameter-binding vector, and the gather-index pool. Each op writes its
// forward result into the buffer the previous pass left at the same arena
// position, reshaped in place: a slot allocates only when it needs more
// capacity than any earlier pass gave it, and a forward buffer is never
// zero-filled. Graphs whose shapes vary from pass to pass (the
// treated/control split of every mini-batch differs) therefore stop
// allocating once each slot has seen its largest shape. Gradient buffers
// are invalidated logically via a pass generation counter, so Reset() is
// O(1).
//
// TapeLease hands out retained tapes from a small per-thread pool, so
// call sites that build a graph per call (validation losses, inference
// helpers) reuse warmed arenas too, and the retained memory is bounded per
// thread rather than per model.
//
// Backward functions are not heap-allocated std::function closures: each
// node stores a plain function pointer plus a small trivially-copyable
// payload (dependency ids, a scalar, an index-pool slice, a pointer to
// state the op's caller owns), so recording a node never touches the
// allocator.
//
// Model parameters live outside the tape as `Parameter` (value + grad).
// Each training step binds parameters as leaves via Tape::Param; after
// Tape::Backward the leaf gradients are accumulated back into the bound
// Parameter::grad. Binding the same Parameter several times in one tape is
// supported (the gradients add), which the CERL losses rely on (the same
// representation network is applied to data, memory, and distillation
// inputs within a single objective). Param leaves ALIAS the parameter's
// value matrix instead of copying it; the caller must keep the parameter
// alive and unmodified until Backward() has run (optimizer steps happen
// after Backward, so the training loop satisfies this by construction).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace cerl::autodiff {

using linalg::Matrix;

class Tape;

/// A trainable tensor: value plus accumulated gradient.
struct Parameter {
  Matrix value;
  Matrix grad;
  std::string name;

  Parameter() = default;
  Parameter(Matrix v, std::string n = "")
      : value(std::move(v)), grad(value.rows(), value.cols()),
        name(std::move(n)) {}

  /// Resets the gradient to zero (call before each optimization step).
  void ZeroGrad() {
    if (!grad.SameShape(value)) grad = Matrix(value.rows(), value.cols());
    grad.Fill(0.0);
  }
};

/// Lightweight handle to a tape node.
class Var {
 public:
  Var() : tape_(nullptr), id_(-1) {}
  Var(Tape* tape, int id) : tape_(tape), id_(id) {}

  bool valid() const { return tape_ != nullptr && id_ >= 0; }
  Tape* tape() const { return tape_; }
  int id() const { return id_; }

  const Matrix& value() const;
  const Matrix& grad() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  /// Scalar convenience for 1x1 nodes.
  double scalar() const;

 private:
  Tape* tape_;
  int id_;
};

/// The autodiff graph arena for one forward/backward pass, reusable across
/// passes via Reset().
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Rewinds the tape to empty while retaining node buffers, binding and
  /// index-pool capacity. Re-recording the same graph afterwards reuses the
  /// retained Matrix storage allocation-free. Outstanding Vars from the
  /// previous pass are invalidated.
  void Reset();

  /// Constant input; no gradient is tracked through it. The value is copied
  /// into (reused) tape storage.
  Var Constant(const Matrix& value);
  /// Overload that moves only when the retained buffer cannot absorb the
  /// value without reallocating; otherwise copies into the reused buffer.
  Var Constant(Matrix&& value);

  /// Constant that ALIASES external storage instead of copying. `value`
  /// must stay alive and unmodified until the pass (Backward) completes,
  /// and must NOT point into this tape's own nodes (arena growth moves
  /// them — use Constant(v.value()) to detach a node instead). This is the
  /// zero-copy path for pre-assembled minibatch data.
  Var ConstantView(const Matrix* value);

  /// Leaf with gradient tracking (not bound to any Parameter).
  Var Leaf(const Matrix& value);
  Var Leaf(Matrix&& value);

  /// Leaf bound to a Parameter: after Backward, the leaf gradient is added
  /// into p->grad. The leaf aliases p->value (no copy); see the class
  /// comment for the lifetime contract.
  Var Param(Parameter* p);

  /// Runs reverse-mode accumulation from scalar `root` (must be 1x1) and
  /// flushes gradients of bound parameters into their Parameter::grad.
  void Backward(const Var& root);

  /// Number of nodes currently on the tape.
  int size() const { return size_; }

  /// Matrix buffer allocations performed by the arena since construction:
  /// a new slot, or a slot growing beyond its retained capacity. Reshaping
  /// within capacity is not counted. Flat once every slot has seen its
  /// largest shape; tests use this to prove the zero-churn property.
  int64_t arena_allocations() const { return arena_allocations_; }

  // --- Internal API used by op implementations -----------------------------

  /// Small trivially-copyable payload carried by every node instead of a
  /// heap-allocated closure capture.
  struct BackwardCtx {
    int a = -1;      ///< first dependency id (-1: none)
    int b = -1;      ///< second dependency id (-1: none)
    int c = -1;      ///< third dependency id (-1: none)
    int aux = 0;     ///< op-specific (row split, index-pool offset, op)
    int aux2 = 0;    ///< op-specific (index-pool length)
    double k = 0.0;  ///< op-specific scalar
    /// Op-specific state outside the tape (e.g. ot::WassersteinPenalty's
    /// Sinkhorn scratch); the op's caller keeps it alive through Backward.
    void* ext = nullptr;
  };
  /// Backward kernel: plain function pointer, no captures.
  using BackwardKernel = void (*)(Tape*, int self, const BackwardCtx&);

  /// Appends a node of the given shape, reshaping the retained value buffer
  /// at this arena position in place (allocating only beyond its capacity).
  /// Returns the node handle and sets `*out` to the node's value buffer,
  /// which the op must FULLY overwrite: it holds stale or uninitialized
  /// values, never zeros.
  /// requires_grad is inferred from ctx.a / ctx.b / ctx.c.
  Var NewNode(int rows, int cols, BackwardKernel kernel,
              const BackwardCtx& ctx, Matrix** out);

  const Matrix& ValueOf(int id) const {
    CERL_DCHECK(id >= 0 && id < size_);
    const Node& node = nodes_[id];
    return node.alias != nullptr ? *node.alias : node.value;
  }
  bool RequiresGrad(int id) const { return nodes_[id].requires_grad; }

  /// Gradient of node `id`; zero-filled on first touch per pass (backward
  /// kernels accumulate into it).
  Matrix& GradRef(int id);

  /// True if gradient has been accumulated into the node this pass.
  bool HasGrad(int id) const { return nodes_[id].grad_gen == gen_; }

  /// Copies `n` gather indices into the tape-owned pool (capacity is
  /// retained across Reset) and returns the pool offset.
  int StoreIndices(const int* idx, int n);
  const int* Indices(int offset) const { return index_pool_.data() + offset; }

 private:
  struct Node {
    Matrix value;
    Matrix grad;
    const Matrix* alias = nullptr;  ///< external value (Param/ConstantView)
    uint32_t grad_gen = 0;          ///< grad is live iff == Tape::gen_
    bool requires_grad = false;
    BackwardKernel kernel = nullptr;
    BackwardCtx ctx;
  };

  /// Claims the next arena slot (reusing a retired node after Reset) and
  /// stamps the common fields. The slot's value/grad buffers are left as the
  /// previous pass retired them. Growing the arena moves existing nodes, so
  /// callers must not hold references into `nodes_` across a claim.
  Node& ClaimSlot();
  /// Shared body of the Constant overloads (M is `const Matrix&` to copy or
  /// `Matrix` to move).
  template <typename M>
  Var ConstantImpl(M&& value);

  std::vector<Node> nodes_;
  int size_ = 0;       ///< live prefix of nodes_
  uint32_t gen_ = 1;   ///< pass generation; bumped by Reset()
  std::vector<std::pair<int, Parameter*>> bindings_;
  std::vector<int> index_pool_;
  int index_size_ = 0;  ///< live prefix of index_pool_
  int64_t arena_allocations_ = 0;
};

/// RAII lease on one of the calling thread's retained tapes. The tape
/// arrives empty and keeps the buffers of earlier passes on this thread;
/// on release it is Reset() (no binding or alias survives) and returned to
/// the pool. Nested leases on one thread get distinct tapes. Vars recorded
/// on a leased tape are invalid once the lease ends.
class TapeLease {
 public:
  TapeLease();
  ~TapeLease();
  TapeLease(const TapeLease&) = delete;
  TapeLease& operator=(const TapeLease&) = delete;

  Tape* get() const { return tape_.get(); }
  Tape* operator->() const { return tape_.get(); }
  Tape& operator*() const { return *tape_; }

 private:
  std::unique_ptr<Tape> tape_;
};

}  // namespace cerl::autodiff
