#include "nn/optim.h"

#include <cmath>

#include "linalg/simd.h"

namespace cerl::nn {

void Optimizer::ZeroGrad() {
  for (Parameter* p : params_) p->ZeroGrad();
}

Sgd::Sgd(std::vector<Parameter*> params, double lr, double momentum,
         double weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  lr_ = lr;
}

void Sgd::Step() {
  if (velocity_.empty()) {
    velocity_.reserve(params_.size());
    for (Parameter* p : params_) {
      velocity_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    linalg::Matrix& vel = velocity_[i];
    for (int64_t j = 0; j < p->value.size(); ++j) {
      double g = p->grad.data()[j];
      if (weight_decay_ != 0.0) g += weight_decay_ * p->value.data()[j];
      vel.data()[j] = momentum_ * vel.data()[j] + g;
      p->value.data()[j] -= lr_ * vel.data()[j];
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps, double weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
}

void Adam::Step() {
  if (m_.empty()) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (Parameter* p : params_) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
  ++t_;
  const double inv_bc1 =
      1.0 / (1.0 - std::pow(beta1_, static_cast<double>(t_)));
  const double inv_bc2 =
      1.0 / (1.0 - std::pow(beta2_, static_cast<double>(t_)));
  const auto& ks = linalg::simd::Kernels();
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    ks.adam_update(p->value.data(), p->grad.data(), m_[i].data(),
                   v_[i].data(), p->value.size(), beta1_, beta2_, inv_bc1,
                   inv_bc2, eps_, lr_, weight_decay_);
  }
}

}  // namespace cerl::nn
