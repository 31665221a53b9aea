#include "nn/linear.h"

#include "autodiff/ops.h"
#include "nn/init.h"

namespace cerl::nn {

Linear::Linear(Rng* rng, int in_dim, int out_dim, Activation activation,
               std::string name)
    : activation_(activation) {
  const bool relu_family =
      activation == Activation::kRelu || activation == Activation::kElu;
  weight_ = Parameter(relu_family ? HeNormal(rng, in_dim, out_dim)
                                  : XavierUniform(rng, in_dim, out_dim),
                      name + ".weight");
  bias_ = Parameter(Zeros(1, out_dim), name + ".bias");
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

Var Linear::Forward(Tape* tape, Var x) {
  Var w = tape->Param(&weight_);
  Var b = tape->Param(&bias_);
  // ELU and tanh run in the layer's GEMM epilogue; relu and sigmoid
  // follow as their own node.
  const linalg::simd::EwFwd fused = EpilogueActivation(activation_);
  Var out = autodiff::LinearAct(x, w, b, fused);
  return fused == linalg::simd::EwFwd::kNone
             ? ApplyActivation(out, activation_)
             : out;
}

}  // namespace cerl::nn
