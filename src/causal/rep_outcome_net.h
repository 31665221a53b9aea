// The representation + two-headed outcome architecture shared by the CFR
// baseline and the CERL continual stages (paper §III-A1):
//   g_w : X -> R   selective representation network; the first layer weight
//                  carries the elastic-net penalty (Eq. 1), the last layer
//                  optionally applies cosine normalization (Eq. 2);
//   h_theta : R x T -> Y   two separate outcome heads, one per treatment arm,
//                  each unit updated only through its factual head.
// Each net owns its input/outcome scalers so representations are always
// produced in the net's own input space.
#pragma once

#include <memory>
#include <vector>

#include "causal/scaler.h"
#include "data/dataset.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace cerl::causal {

using autodiff::Parameter;
using autodiff::Tape;
using autodiff::Var;

/// Architecture hyperparameters.
struct NetConfig {
  std::vector<int> rep_hidden = {48};   ///< hidden sizes of g_w
  int rep_dim = 24;                     ///< representation dimension
  std::vector<int> head_hidden = {32};  ///< hidden sizes of each head
  nn::Activation activation = nn::Activation::kElu;
  /// Cosine normalization in the last representation layer (Eq. 2).
  bool cosine_normalized_rep = true;
};

/// Layer structure of g_w for a config / input dimension. Exposed so the
/// serving plane (src/serve/) can reconstruct the exact forward pass from
/// snapshot weights without duplicating the architecture rules (hidden
/// activation, forced-tanh output, cosine-normalized last layer).
nn::MlpConfig RepMlpConfig(const NetConfig& config, int input_dim);

/// Layer structure of each outcome head h_t (rep_dim -> ... -> 1, linear
/// output).
nn::MlpConfig HeadMlpConfig(const NetConfig& config);

/// g_w plus h_theta = {h_0, h_1}, with scalers.
class RepOutcomeNet {
 public:
  RepOutcomeNet(Rng* rng, const NetConfig& config, int input_dim);

  /// Representation forward pass on already-scaled inputs.
  Var Rep(Tape* tape, Var x_scaled);

  /// Outcome head forward (head = 0 control, 1 treated) on representations;
  /// returns scaled-outcome predictions (n x 1).
  Var Head(Tape* tape, Var rep, int head);

  /// All trainable parameters (g_w, h_0, h_1).
  std::vector<Parameter*> Parameters();

  /// First-layer weight of g_w — the elastic-net target (Eq. 1).
  Parameter& FirstLayerWeight() { return rep_->FirstLayerWeight(); }

  /// No-grad representation of raw covariates (applies the input scaler).
  linalg::Matrix Representations(const linalg::Matrix& x_raw);

  /// No-grad head evaluation on raw covariates, in original outcome units.
  linalg::Vector PredictOutcome(const linalg::Matrix& x_raw, int treatment);

  /// Estimated ITE per unit: h(g(x), 1) - h(g(x), 0), original units.
  linalg::Vector PredictIte(const linalg::Matrix& x_raw);

  int input_dim() const { return input_dim_; }
  int rep_dim() const { return config_.rep_dim; }
  const NetConfig& config() const { return config_; }

  /// Copies all parameter values from `other` (same architecture required).
  void CopyParametersFrom(RepOutcomeNet& other);

  FeatureScaler& x_scaler() { return x_scaler_; }
  OutcomeScaler& y_scaler() { return y_scaler_; }
  const FeatureScaler& x_scaler() const { return x_scaler_; }
  const OutcomeScaler& y_scaler() const { return y_scaler_; }

 private:
  NetConfig config_;
  int input_dim_;
  std::unique_ptr<nn::Mlp> rep_;
  std::unique_ptr<nn::Mlp> head0_;
  std::unique_ptr<nn::Mlp> head1_;
  FeatureScaler x_scaler_;
  OutcomeScaler y_scaler_;
};

}  // namespace cerl::causal
