#include "graph/localized_transition.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace d2stgnn::graph {

Tensor LocalizedTransition(const Tensor& p_k, int64_t k_t) {
  D2_CHECK_GE(k_t, 1);
  D2_CHECK_GE(p_k.dim(), 2);
  const int64_t n = p_k.size(-1);
  D2_CHECK_EQ(p_k.size(-2), n) << "trailing block must be square";
  // (1 - I_N), broadcast over any batch dimensions.
  return Mul(p_k, Sub(Tensor::Ones({n, n}), Tensor::Eye(n)));
}

}  // namespace d2stgnn::graph
