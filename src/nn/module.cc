#include "nn/module.h"

#include "autodiff/ops.h"

namespace cerl::nn {

Var ApplyActivation(Var x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return autodiff::Relu(x);
    case Activation::kElu: return autodiff::Elu(x);
    case Activation::kTanh: return autodiff::Tanh(x);
    case Activation::kSigmoid: return autodiff::Sigmoid(x);
  }
  return x;
}

linalg::simd::EwFwd EpilogueActivation(Activation act) {
  switch (act) {
    case Activation::kElu: return linalg::simd::EwFwd::kElu;
    case Activation::kTanh: return linalg::simd::EwFwd::kTanh;
    default: return linalg::simd::EwFwd::kNone;
  }
}

std::vector<Parameter*> Module::Parameters() {
  std::vector<Parameter*> out;
  CollectParameters(&out);
  return out;
}

void Module::ZeroGrad() {
  for (Parameter* p : Parameters()) p->ZeroGrad();
}

int64_t Module::NumParameters() {
  int64_t n = 0;
  for (Parameter* p : Parameters()) n += p->value.size();
  return n;
}

}  // namespace cerl::nn
