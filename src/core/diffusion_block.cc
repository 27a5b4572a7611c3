#include "core/diffusion_block.h"

#include "common/check.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace d2stgnn::core {

DiffusionBlock::DiffusionBlock(int64_t hidden_dim, int64_t k_s, int64_t k_t,
                               int64_t num_supports, int64_t forecast_horizon,
                               bool autoregressive, Rng& rng)
    : Module("diffusion_block"),
      hidden_dim_(hidden_dim),
      k_s_(k_s),
      k_t_(k_t),
      horizon_(forecast_horizon),
      autoregressive_(autoregressive) {
  D2_CHECK_GE(k_s, 1);
  D2_CHECK_GE(k_t, 1);
  D2_CHECK_GE(num_supports, 1);
  for (int64_t j = 0; j < k_t; ++j) {
    frame_fc_.push_back(
        std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng));
    RegisterChild(frame_fc_.back().get());
  }
  for (int64_t s = 0; s < num_supports; ++s) {
    for (int64_t k = 0; k < k_s; ++k) {
      conv_weight_.push_back(RegisterParameter(
          "W_conv", nn::XavierUniform({hidden_dim, hidden_dim}, rng)));
    }
  }
  if (autoregressive_) {
    forecast_fc1_ =
        std::make_unique<nn::Linear>(k_t * hidden_dim, hidden_dim, rng);
    forecast_fc2_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  } else {
    forecast_fc1_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
    forecast_fc2_ = std::make_unique<nn::Linear>(
        hidden_dim, forecast_horizon * hidden_dim, rng);
  }
  RegisterChild(forecast_fc1_.get());
  RegisterChild(forecast_fc2_.get());
  backcast_fc1_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  backcast_fc2_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  RegisterChild(backcast_fc1_.get());
  RegisterChild(backcast_fc2_.get());
}

BlockOutput DiffusionBlock::Forward(
    const Tensor& x,
    const std::vector<std::vector<Tensor>>& localized_supports) const {
  D2_CHECK_EQ(x.dim(), 4);
  const int64_t batch = x.size(0);
  const int64_t steps = x.size(1);
  const int64_t nodes = x.size(2);
  const int64_t dim = hidden_dim_;
  D2_CHECK_EQ(x.size(3), dim);
  D2_CHECK(!localized_supports.empty()) << "DiffusionBlock needs a support";
  D2_CHECK_LE(localized_supports.size(),
              conv_weight_.size() / static_cast<size_t>(k_s_));

  // Eqs. 5 & 6 folded. P^lc is k_t copies of M = P^k ⊙ (1 - I) side by side,
  // so P^lc X^lc_t = M Z_t with Z_t = sum_j sigma(X_{t-j} W_j). The sequence
  // is zero-padded in front so every step owns a full k_t window; the frame
  // at padded index t + j2 (original t - kt + 1 + j2) uses the transform
  // with offset j = kt - 1 - j2.
  const Tensor padded = PadFront(x, 1, k_t_ - 1);  // [B, T+kt-1, N, d]
  Tensor z;                                         // [B, T, N, d]
  for (int64_t j2 = 0; j2 < k_t_; ++j2) {
    const Tensor frames =
        Relu(frame_fc_[static_cast<size_t>(k_t_ - 1 - j2)]->Forward(
            Slice(padded, 1, j2, j2 + steps)));
    z = z.defined() ? Add(z, frames) : frames;
  }
  // T folds into the GEMM columns: [B, N, T*d].
  const Tensor z_cols =
      Reshape(Permute(z, {0, 2, 1, 3}), {batch, nodes, steps * dim});

  // Eq. 8: H = sum_s sum_k M_{s,k} Z W_{s,k}, one [N, N] x [N, T*d] product
  // and one [N*T, d] x [d, d] product per (support, order).
  Tensor h;  // [B, N*T, d]
  for (size_t s = 0; s < localized_supports.size(); ++s) {
    D2_CHECK_EQ(static_cast<int64_t>(localized_supports[s].size()), k_s_);
    for (int64_t k = 0; k < k_s_; ++k) {
      const Tensor& m = localized_supports[s][static_cast<size_t>(k)];
      D2_CHECK((m.dim() == 2 || (m.dim() == 3 && m.size(0) == batch)) &&
               m.size(-2) == nodes && m.size(-1) == nodes)
          << "support " << s << " power " << k + 1 << " is "
          << ShapeToString(m.shape()) << "; want [N, N] or [B, N, N] with N = "
          << nodes << ", B = " << batch;
      const Tensor conv = MatMul(
          Reshape(MatMul(m, z_cols), {batch, nodes * steps, dim}),
          conv_weight_[s * static_cast<size_t>(k_s_) + static_cast<size_t>(k)]);
      h = h.defined() ? Add(h, conv) : conv;
    }
  }
  const Tensor hidden =
      Permute(Reshape(h, {batch, nodes, steps, dim}), {0, 2, 1, 3});

  BlockOutput out;
  out.hidden_sequence = hidden;

  // Forecast branch (Sec. 5.1): roll an MLP over the last k_t hidden states
  // to produce H_{T+1..T+Tf} auto-regressively; the w/o-ar ablation
  // regresses all future hidden states from H_T at once.
  if (autoregressive_) {
    std::vector<Tensor> window;
    for (int64_t j = std::max<int64_t>(0, steps - k_t_); j < steps; ++j) {
      window.push_back(Select(hidden, 1, j));
    }
    while (static_cast<int64_t>(window.size()) < k_t_) {
      window.insert(window.begin(), Tensor::Zeros({batch, nodes, dim}));
    }
    std::vector<Tensor> future;
    future.reserve(static_cast<size_t>(horizon_));
    for (int64_t f = 0; f < horizon_; ++f) {
      const Tensor context = Concat(window, -1);  // [B, N, kt*d]
      const Tensor next = forecast_fc2_->Forward(
          Relu(forecast_fc1_->Forward(context)));
      future.push_back(next);
      window.erase(window.begin());
      window.push_back(next);
    }
    out.hidden_forecast = Stack(future, 1);  // [B, Tf, N, d]
  } else {
    const Tensor last = Select(hidden, 1, steps - 1);  // [B, N, d]
    Tensor flat =
        forecast_fc2_->Forward(Relu(forecast_fc1_->Forward(last)));
    flat = Reshape(flat, {batch, nodes, horizon_, dim});
    out.hidden_forecast = Permute(flat, {0, 2, 1, 3});
  }

  // Backcast branch (Eq. 1's sigma(H W_b), realized as a two-layer
  // non-linear fully connected network).
  out.backcast = backcast_fc2_->Forward(Relu(backcast_fc1_->Forward(hidden)));
  return out;
}

}  // namespace d2stgnn::core
