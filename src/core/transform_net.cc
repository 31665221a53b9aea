#include "core/transform_net.h"

namespace cerl::core {

TransformNet::TransformNet(Rng* rng, int rep_dim, std::vector<int> hidden)
    : rep_dim_(rep_dim) {
  nn::MlpConfig config;
  config.dims.push_back(rep_dim);
  for (int h : hidden) config.dims.push_back(h);
  config.dims.push_back(rep_dim);
  config.hidden_activation = nn::Activation::kElu;
  config.output_activation = nn::Activation::kTanh;
  net_ = std::make_unique<nn::Mlp>(rng, config, "phi");
  if (hidden.empty()) {
    // Identity initialization: at the start of a continual stage the new
    // representation space coincides with the old one (warm start), so phi
    // must start as (approximately) the identity. A random phi would let
    // the replay loss fit old outcomes at arbitrary representation
    // locations during the first epochs, polluting the outcome heads.
    Parameter& w = net_->FirstLayerWeight();
    w.value.Fill(0.0);
    for (int i = 0; i < rep_dim; ++i) w.value(i, i) = 1.0;
  }
}

Var TransformNet::Forward(Tape* tape, Var rep) {
  return net_->Forward(tape, rep);
}

linalg::Matrix TransformNet::Apply(const linalg::Matrix& reps) {
  autodiff::TapeLease tape;  // per-thread retained tape, not one per call
  return Forward(tape.get(), tape->ConstantView(&reps)).value();
}

std::vector<Parameter*> TransformNet::Parameters() {
  return net_->Parameters();
}

}  // namespace cerl::core
