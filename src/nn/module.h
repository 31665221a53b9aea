// Module base class: anything with trainable Parameters and a
// Var -> Var forward pass on a caller-supplied tape.
#pragma once

#include <vector>

#include "autodiff/tape.h"
#include "linalg/simd.h"

namespace cerl::nn {

using autodiff::Parameter;
using autodiff::Tape;
using autodiff::Var;

/// Activation functions available to layers.
enum class Activation { kNone, kRelu, kElu, kTanh, kSigmoid };

/// Applies the chosen activation as a tape op.
Var ApplyActivation(Var x, Activation act);

/// The activation a dense layer's GEMM epilogue applies: EwFwd::kElu or
/// kTanh for those two; kNone for kNone and for the activations applied as
/// their own op after the layer (relu, sigmoid).
linalg::simd::EwFwd EpilogueActivation(Activation act);

/// Base class for trainable components.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends this module's parameters (used by optimizers/serialization).
  virtual void CollectParameters(std::vector<Parameter*>* out) = 0;

  /// Forward pass: binds parameters to `tape` and returns the output Var.
  virtual Var Forward(Tape* tape, Var x) = 0;

  /// All parameters, in a stable order.
  std::vector<Parameter*> Parameters();

  /// Zeroes every parameter gradient.
  void ZeroGrad();

  /// Total number of scalar parameters.
  int64_t NumParameters();
};

}  // namespace cerl::nn
