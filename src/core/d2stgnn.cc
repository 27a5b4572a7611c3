#include "core/d2stgnn.h"

#include "common/check.h"
#include "graph/localized_transition.h"
#include "graph/transition.h"
#include "tensor/ops.h"

namespace d2stgnn::core {
namespace {

DecoupledLayerConfig LayerConfigFrom(const D2StgnnConfig& c) {
  DecoupledLayerConfig lc;
  lc.hidden_dim = c.hidden_dim;
  lc.embed_dim = c.embed_dim;
  lc.k_s = c.k_s;
  lc.k_t = c.k_t;
  lc.num_heads = c.num_heads;
  lc.input_len = c.input_len;
  lc.horizon = c.output_len;
  lc.num_supports = c.use_adaptive ? 3 : 2;
  lc.inherent_first = c.inherent_first;
  lc.use_gate = c.use_gate;
  lc.use_residual = c.use_residual;
  lc.use_decouple = c.use_decouple;
  lc.use_gru = c.use_gru;
  lc.use_msa = c.use_msa;
  lc.autoregressive = c.autoregressive;
  return lc;
}

/// The masked block M of Eq. 4 for each power P^1..P^{k_s} of `p`.
std::vector<Tensor> LocalizedPowers(const Tensor& p, int64_t k_s,
                                    int64_t k_t) {
  std::vector<Tensor> localized;
  for (const Tensor& power : graph::TransitionPowers(p, k_s)) {
    localized.push_back(graph::LocalizedTransition(power, k_t));
  }
  return localized;
}

}  // namespace

D2Stgnn::D2Stgnn(const D2StgnnConfig& config, const Tensor& adjacency,
                 Rng& rng)
    : ForecastingModel("d2stgnn"),
      config_(config),
      input_proj_(data::kInputFeatures, config.hidden_dim, rng),
      node_source_(config.num_nodes, config.embed_dim, rng),
      node_target_(config.num_nodes, config.embed_dim, rng),
      time_of_day_(config.steps_per_day, config.embed_dim, rng),
      day_of_week_(7, config.embed_dim, rng),
      out_fc1_(config.hidden_dim, config.hidden_dim, rng),
      out_fc2_(config.hidden_dim, 1, rng) {
  D2_CHECK_GT(config.num_nodes, 0);
  D2_CHECK_EQ(adjacency.dim(), 2);
  D2_CHECK_EQ(adjacency.size(0), config.num_nodes);

  RegisterChild(&input_proj_);
  RegisterChild(&node_source_);
  RegisterChild(&node_target_);
  RegisterChild(&time_of_day_);
  RegisterChild(&day_of_week_);
  RegisterChild(&out_fc1_);
  RegisterChild(&out_fc2_);

  // Static transitions and their localized powers (constants).
  {
    NoGradGuard no_grad;
    p_forward_ = graph::ForwardTransition(adjacency);
    p_backward_ = graph::BackwardTransition(adjacency);
    for (const Tensor& p : {p_forward_, p_backward_}) {
      static_localized_.push_back(LocalizedPowers(p, config.k_s, config.k_t));
    }
  }

  if (config.use_dynamic_graph) {
    dynamic_graph_ = std::make_unique<DynamicGraphLearner>(
        config.input_len, config.hidden_dim, config.embed_dim, rng);
    RegisterChild(dynamic_graph_.get());
  }

  const DecoupledLayerConfig layer_config = LayerConfigFrom(config);
  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<DecoupledLayer>(layer_config, rng));
    RegisterChild(layers_.back().get());
  }
}

Tensor D2Stgnn::AdaptiveTransition() const {
  if (!config_.use_adaptive) return Tensor();
  // Eq. 7: P_apt = Softmax(ReLU(E^d (E^u)^T)).
  const Tensor logits =
      Relu(MatMul(node_target_.table(), Transpose(node_source_.table(), 0, 1)));
  return Softmax(logits, -1);
}

Tensor D2Stgnn::Forward(const data::Batch& batch) {
  const int64_t b = batch.batch_size;
  const int64_t steps = batch.input_len;
  const int64_t nodes = batch.num_nodes();
  D2_CHECK_EQ(steps, config_.input_len);
  D2_CHECK_EQ(nodes, config_.num_nodes);

  // Project the raw signal into the latent space (Sec. 4 intro).
  Tensor x = input_proj_.Forward(batch.x);  // [B, T, N, d]

  // Shared embeddings.
  const Tensor t_day = time_of_day_.Forward(batch.time_of_day, {b, steps});
  const Tensor t_week = day_of_week_.Forward(batch.day_of_week, {b, steps});
  const Tensor e_u = node_source_.table();
  const Tensor e_d = node_target_.table();

  // Assemble the localized supports shared by every layer (Algorithm 1,
  // lines 1-2): road-network transitions (dynamic when enabled) plus the
  // self-adaptive transition.
  std::vector<std::vector<Tensor>> supports;
  if (config_.use_dynamic_graph) {
    // Time embedding of the window's final step conditions the graph.
    const Tensor day_last =
        Reshape(Slice(t_day, 1, steps - 1, steps), {b, config_.embed_dim});
    const Tensor week_last =
        Reshape(Slice(t_week, 1, steps - 1, steps), {b, config_.embed_dim});
    const auto [p_f_dy, p_b_dy] = dynamic_graph_->Forward(
        x, day_last, week_last, e_u, e_d, p_forward_, p_backward_);
    for (const Tensor& p : {p_f_dy, p_b_dy}) {
      supports.push_back(LocalizedPowers(p, config_.k_s, config_.k_t));
    }
  } else {
    supports = static_localized_;
  }
  if (config_.use_adaptive) {
    supports.push_back(
        LocalizedPowers(AdaptiveTransition(), config_.k_s, config_.k_t));
  }

  // Stack the decoupled layers, summing forecast hidden states (Eq. 15).
  Tensor forecast_sum;
  for (const auto& layer : layers_) {
    const LayerOutput out =
        layer->Forward(x, t_day, t_week, e_u, e_d, supports);
    const Tensor layer_forecast = Add(out.forecast_dif, out.forecast_inh);
    forecast_sum = forecast_sum.defined() ? Add(forecast_sum, layer_forecast)
                                          : layer_forecast;
    x = out.next_input;
  }

  // Two-layer regression head on H (Sec. 5.4).
  return out_fc2_.Forward(Relu(out_fc1_.Forward(forecast_sum)));
}

D2StgnnConfig MakeStaticGraphConfig(D2StgnnConfig config) {
  config.use_dynamic_graph = false;
  return config;
}

D2StgnnConfig MakeCoupledConfig(D2StgnnConfig config) {
  config.use_dynamic_graph = false;
  config.use_decouple = false;
  config.use_gate = false;
  config.use_residual = false;
  return config;
}

}  // namespace d2stgnn::core
