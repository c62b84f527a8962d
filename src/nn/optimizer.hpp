// SGD optimizer with momentum, weight decay and an optional proximal term.
//
// The proximal term implements FedProx's local objective
//   F_i(w) + (mu/2) ||w - w_ref||^2
// by adding mu * (w - w_ref) to the gradient at each step, where w_ref is
// the global model the client started the round from.
#pragma once

#include <optional>
#include <vector>

#include "nn/model.hpp"

namespace fedclust::nn {

/// Hyperparameters for Sgd.
struct SgdConfig {
  double lr = 0.01;
  double momentum = 0.0;
  double weight_decay = 0.0;
  /// FedProx proximal coefficient mu; 0 disables the term.
  double prox_mu = 0.0;
};

/// Stochastic gradient descent bound to one model instance.
///
/// The optimizer references the model's parameters by position, so the
/// model must outlive the optimizer and its layer structure must not
/// change between steps.
class Sgd {
 public:
  Sgd(Model& model, SgdConfig config);

  /// Captures the current model weights as the proximal reference w_ref.
  /// Call at the start of a local round when prox_mu > 0.
  void capture_prox_reference();

  /// Applies one update from the accumulated gradients; does not zero
  /// them (call Model::zero_grad()).
  void step();

  const SgdConfig& config() const { return config_; }

 private:
  Model& model_;
  SgdConfig config_;
  std::vector<Tensor> velocity_;          // one per param, lazily shaped
  std::vector<Tensor> prox_reference_;    // empty unless captured
};

/// Hyperparameters for Adam.
struct AdamConfig {
  double lr = 0.001;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;
};

/// Adam (Kingma & Ba, 2015) bound to one model instance. Same contract
/// as Sgd: references parameters by position; call after backward(),
/// then Model::zero_grad().
class Adam {
 public:
  Adam(Model& model, AdamConfig config);

  void step();

  const AdamConfig& config() const { return config_; }
  std::size_t steps_taken() const { return t_; }

 private:
  Model& model_;
  AdamConfig config_;
  std::vector<Tensor> m_;  // first-moment estimates
  std::vector<Tensor> v_;  // second-moment estimates
  std::size_t t_ = 0;
};

}  // namespace fedclust::nn
