#include "causal/rep_outcome_net.h"

#include "util/check.h"

namespace cerl::causal {

nn::MlpConfig RepMlpConfig(const NetConfig& config, int input_dim) {
  nn::MlpConfig m;
  m.dims.push_back(input_dim);
  for (int h : config.rep_hidden) m.dims.push_back(h);
  m.dims.push_back(config.rep_dim);
  m.hidden_activation = config.activation;
  // Cosine layer already bounds pre-activations in [-1, 1]; tanh keeps the
  // plain-linear ablation comparable (bounded representations either way).
  m.output_activation = nn::Activation::kTanh;
  m.cosine_normalized_output = config.cosine_normalized_rep;
  return m;
}

nn::MlpConfig HeadMlpConfig(const NetConfig& config) {
  nn::MlpConfig m;
  m.dims.push_back(config.rep_dim);
  for (int h : config.head_hidden) m.dims.push_back(h);
  m.dims.push_back(1);
  m.hidden_activation = config.activation;
  m.output_activation = nn::Activation::kNone;
  return m;
}

RepOutcomeNet::RepOutcomeNet(Rng* rng, const NetConfig& config, int input_dim)
    : config_(config), input_dim_(input_dim) {
  CERL_CHECK_GT(input_dim, 0);
  rep_ = std::make_unique<nn::Mlp>(rng, RepMlpConfig(config, input_dim),
                                   "rep");
  head0_ = std::make_unique<nn::Mlp>(rng, HeadMlpConfig(config), "head0");
  head1_ = std::make_unique<nn::Mlp>(rng, HeadMlpConfig(config), "head1");
}

Var RepOutcomeNet::Rep(Tape* tape, Var x_scaled) {
  return rep_->Forward(tape, x_scaled);
}

Var RepOutcomeNet::Head(Tape* tape, Var rep, int head) {
  CERL_CHECK(head == 0 || head == 1);
  return (head == 0 ? head0_ : head1_)->Forward(tape, rep);
}

std::vector<Parameter*> RepOutcomeNet::Parameters() {
  std::vector<Parameter*> out;
  rep_->CollectParameters(&out);
  head0_->CollectParameters(&out);
  head1_->CollectParameters(&out);
  return out;
}

// The inference helpers record on a leased per-thread tape (see
// autodiff::TapeLease): no tape is built per call, and no tape is kept per
// network.
linalg::Matrix RepOutcomeNet::Representations(const linalg::Matrix& x_raw) {
  autodiff::TapeLease tape;
  Var x = tape->Constant(x_scaler_.Apply(x_raw));
  return Rep(tape.get(), x).value();
}

linalg::Vector RepOutcomeNet::PredictOutcome(const linalg::Matrix& x_raw,
                                             int treatment) {
  autodiff::TapeLease tape;
  Var x = tape->Constant(x_scaler_.Apply(x_raw));
  Var out = Head(tape.get(), Rep(tape.get(), x), treatment);
  return y_scaler_.InverseTransform(out.value().ColCopy(0));
}

linalg::Vector RepOutcomeNet::PredictIte(const linalg::Matrix& x_raw) {
  autodiff::TapeLease tape;
  Var x = tape->Constant(x_scaler_.Apply(x_raw));
  Var rep = Rep(tape.get(), x);
  const linalg::Vector y1 = Head(tape.get(), rep, 1).value().ColCopy(0);
  const linalg::Vector y0 = Head(tape.get(), rep, 0).value().ColCopy(0);
  linalg::Vector ite(y1.size());
  // Standardization means cancel in the difference; only the scale remains.
  const double scale = y_scaler_.scale();
  for (size_t i = 0; i < ite.size(); ++i) ite[i] = scale * (y1[i] - y0[i]);
  return ite;
}

void RepOutcomeNet::CopyParametersFrom(RepOutcomeNet& other) {
  auto dst = Parameters();
  auto src = other.Parameters();
  CERL_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    CERL_CHECK(dst[i]->value.SameShape(src[i]->value));
    dst[i]->value = src[i]->value;
  }
  x_scaler_ = other.x_scaler_;
  y_scaler_ = other.y_scaler_;
}

}  // namespace cerl::causal
