#ifndef D2STGNN_GRAPH_LOCALIZED_TRANSITION_H_
#define D2STGNN_GRAPH_LOCALIZED_TRANSITION_H_

#include "tensor/tensor.h"

namespace d2stgnn::graph {

/// Builds the block of the spatial-temporal localized transition matrix of
/// the paper's Eq. 4:
///
///   (P^local)^k = [M ‖ ... ‖ M]  (k_t blocks),  M = P^k ⊙ (1 - I_N)
///
/// The diagonal is masked because a node's own history belongs to the
/// inherent model, not the diffusion model. Since every block is the same
/// M, P^local X^lc_t = M · Σ_j X_{t-j}: the diffusion block convolves the
/// summed window with M alone, so only M is built. `p_k` may be a static
/// [N, N] matrix or a batched [B, N, N] dynamic matrix (Eq. 14); the result
/// has the same shape. `k_t` (≥ 1) is the window the block is used with.
/// Differentiable.
Tensor LocalizedTransition(const Tensor& p_k, int64_t k_t);

}  // namespace d2stgnn::graph

#endif  // D2STGNN_GRAPH_LOCALIZED_TRANSITION_H_
