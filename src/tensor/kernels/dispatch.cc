#include "tensor/kernels.h"

#include <algorithm>

#include "common/check.h"

// The parallel half of the kernel layer: partitions every op into chunks
// whose boundaries depend only on the problem size and hands each chunk to a
// serial backend range kernel. Backend choice never changes the chunking, so
// per-backend determinism (1 vs N threads) holds for every backend.

namespace d2stgnn::kernels {
namespace {

// Row block each MatMul task owns: big enough to amortize dispatch, small
// enough to spread a single large matrix over the pool.
constexpr int64_t kMatMulRowBlock = 32;

// Outer-loop grain so each chunk carries ~kEwiseGrain elements of work.
// Depends only on the slice size, never the thread count (determinism).
int64_t OuterGrain(int64_t elems_per_slice) {
  return std::max<int64_t>(1, kEwiseGrain / std::max<int64_t>(1,
                                                              elems_per_slice));
}

// Exactly-rounded single-instruction arithmetic — identical in every
// backend, so the generic strided broadcast walk is backend-neutral.
inline float ApplyBinary(BinaryKind kind, float x, float y) {
  switch (kind) {
    case BinaryKind::kAdd:
      return x + y;
    case BinaryKind::kSub:
      return x - y;
    case BinaryKind::kMul:
      return x * y;
    case BinaryKind::kDiv:
      return x / y;
  }
  return 0.0f;  // unreachable
}

// Matrix-plus-row-vector broadcast: a dense over the full output, b strided
// [0, ..., 0, 1]. Routed to the backend bias_add entry.
bool IsBiasAddPattern(const Shape& out_shape, const std::vector<int64_t>& as,
                      const std::vector<int64_t>& bs) {
  if (out_shape.size() < 2 || out_shape.back() < 1) return false;
  if (bs.back() != 1) return false;
  for (size_t d = 0; d + 1 < bs.size(); ++d) {
    if (bs[d] != 0) return false;
  }
  return as == RowMajorStrides(out_shape);
}

}  // namespace

Shape AlignShape(const Shape& shape, size_t rank) {
  D2_CHECK_LE(shape.size(), rank);
  Shape aligned(rank, 1);
  std::copy(shape.begin(), shape.end(),
            aligned.begin() + static_cast<int64_t>(rank - shape.size()));
  return aligned;
}

std::vector<int64_t> BroadcastStrides(const Shape& shape, const Shape& out) {
  const Shape aligned = AlignShape(shape, out.size());
  const std::vector<int64_t> strides = RowMajorStrides(aligned);
  std::vector<int64_t> result(out.size());
  for (size_t d = 0; d < out.size(); ++d) {
    if (aligned[d] == 1 && out[d] != 1) {
      result[d] = 0;
    } else {
      D2_CHECK_EQ(aligned[d], out[d])
          << "cannot broadcast " << ShapeToString(shape) << " to "
          << ShapeToString(out);
      result[d] = strides[d];
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Elementwise.

void EwiseUnary(const KernelBackend& backend, UnaryKind kind,
                UnaryParams params, const float* a, float* out, int64_t n) {
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    backend.ewise_unary(kind, params, a, out, lo, hi);
  });
}

void EwiseBinary(const KernelBackend& backend, BinaryKind kind,
                 const float* a, const float* b, float* out, int64_t n) {
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    backend.ewise_binary(kind, a, b, out, lo, hi);
  });
}

void EwiseBinaryBroadcast(const KernelBackend& backend, BinaryKind kind,
                          const Shape& out_shape,
                          const std::vector<int64_t>& as,
                          const std::vector<int64_t>& bs, const float* a,
                          const float* b, float* out) {
  if (kind == BinaryKind::kAdd && IsBiasAddPattern(out_shape, as, bs)) {
    const int64_t n = out_shape.back();
    const int64_t rows = NumElements(out_shape) / n;
    ParallelFor(0, rows, OuterGrain(n), [&](int64_t lo, int64_t hi) {
      backend.bias_add(a, b, out, lo, hi, n);
    });
    return;
  }
  const int64_t n = NumElements(out_shape);
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    ForEachBroadcastPair(out_shape, as, bs, lo, hi,
                         [&](int64_t i, int64_t ao, int64_t bo) {
                           out[i] = ApplyBinary(kind, a[ao], b[bo]);
                         });
  });
}

void GatherStrided(const Shape& out_shape, const std::vector<int64_t>& strides,
                   const float* a, float* out) {
  const int64_t n = NumElements(out_shape);
  if (n == 0) return;
  // Canonical form: size-1 dims dropped, and a dim merged into the one
  // before it when the two walk the source contiguously (broadcast runs
  // merge too: 0 == 0 · size).
  Shape dims;
  std::vector<int64_t> src_strides;
  for (size_t d = 0; d < out_shape.size(); ++d) {
    if (out_shape[d] == 1) continue;
    if (!dims.empty() && src_strides.back() == strides[d] * out_shape[d]) {
      dims.back() *= out_shape[d];
      src_strides.back() = strides[d];
    } else {
      dims.push_back(out_shape[d]);
      src_strides.push_back(strides[d]);
    }
  }
  if (dims.empty()) {
    out[0] = a[0];
    return;
  }
  // The output is a grid of blocks, each one run of the last dim (copied,
  // filled when its stride is 0, or gathered) — or, when the second-to-last
  // dim has source stride 1 (a transposed tail), one [rows, cols] plane
  // copied in square tiles so reads and writes both stay within a few cache
  // lines.
  const size_t rank = dims.size();
  const int64_t cols = dims.back();
  const int64_t col_stride = src_strides.back();
  const bool transposed =
      rank >= 2 && src_strides[rank - 2] == 1 && col_stride != 0;
  const size_t block_rank = transposed ? 2 : 1;
  const int64_t rows = transposed ? dims[rank - 2] : 1;
  dims.resize(rank - block_rank);
  src_strides.resize(rank - block_rank);
  const std::vector<int64_t> zero(dims.size(), 0);
  const int64_t block = rows * cols;
  ParallelFor(0, n / block, OuterGrain(block), [&](int64_t lo, int64_t hi) {
    ForEachBroadcastPair(dims, src_strides, zero, lo, hi,
                         [&](int64_t i, int64_t src_off, int64_t) {
      const float* src = a + src_off;
      float* dst = out + i * block;
      if (transposed) {
        constexpr int64_t kTile = 16;
        for (int64_t r0 = 0; r0 < rows; r0 += kTile) {
          const int64_t r1 = std::min(rows, r0 + kTile);
          for (int64_t c0 = 0; c0 < cols; c0 += kTile) {
            const int64_t c1 = std::min(cols, c0 + kTile);
            for (int64_t r = r0; r < r1; ++r) {
              for (int64_t c = c0; c < c1; ++c) {
                dst[r * cols + c] = src[r + c * col_stride];
              }
            }
          }
        }
      } else if (col_stride == 1) {
        std::copy(src, src + cols, dst);
      } else if (col_stride == 0) {
        std::fill(dst, dst + cols, *src);
      } else {
        for (int64_t c = 0; c < cols; ++c) dst[c] = src[c * col_stride];
      }
    });
  });
}

// ---------------------------------------------------------------------------
// MatMul.

void BatchedMatMul(const KernelBackend& backend, const float* a,
                   const float* b, float* out,
                   const std::vector<int64_t>& a_offsets,
                   const std::vector<int64_t>& b_offsets, int64_t m, int64_t k,
                   int64_t n) {
  D2_CHECK_EQ(a_offsets.size(), b_offsets.size());
  const int64_t batch = static_cast<int64_t>(a_offsets.size());
  const int64_t row_blocks = (m + kMatMulRowBlock - 1) / kMatMulRowBlock;
  const int64_t out_matrix = m * n;
  // Each task owns the output rows of one (batch, row-block) pair — every
  // output element is written by exactly one task, in a fixed order.
  ParallelFor(0, batch * row_blocks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t task = lo; task < hi; ++task) {
      const int64_t bi = task / row_blocks;
      const int64_t r0 = (task % row_blocks) * kMatMulRowBlock;
      const int64_t r1 = std::min(m, r0 + kMatMulRowBlock);
      backend.matmul_row_range(a + a_offsets[static_cast<size_t>(bi)],
                               b + b_offsets[static_cast<size_t>(bi)],
                               out + bi * out_matrix, r0, r1, k, n);
    }
  });
}

// ---------------------------------------------------------------------------
// Reductions.

double ReduceSumAll(const KernelBackend& backend, const float* a, int64_t n) {
  if (n == 0) return 0.0;
  const int64_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<double> partials(static_cast<size_t>(blocks), 0.0);
  ParallelFor(0, blocks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t blk = lo; blk < hi; ++blk) {
      const int64_t i0 = blk * kReduceBlock;
      const int64_t i1 = std::min(n, i0 + kReduceBlock);
      partials[static_cast<size_t>(blk)] = backend.reduce_sum_range(a, i0, i1);
    }
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

void ReduceSumDim(const KernelBackend& backend, const float* a, float* out,
                  int64_t outer, int64_t size, int64_t inner) {
  ParallelFor(0, outer, OuterGrain(size * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      backend.reduce_sum_dim_slice(a + o * size * inner, out + o * inner,
                                   size, inner);
    }
  });
}

void ExtremumDim(const float* a, float* out, int64_t* arg, int64_t outer,
                 int64_t size, int64_t inner, float sign) {
  ParallelFor(0, outer, OuterGrain(size * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t i = 0; i < inner; ++i) {
        const int64_t base = o * size * inner + i;
        float best = a[base];
        int64_t best_s = 0;
        for (int64_t s = 1; s < size; ++s) {
          const float v = a[base + s * inner];
          if (sign * v > sign * best) {
            best = v;
            best_s = s;
          }
        }
        out[o * inner + i] = best;
        arg[o * inner + i] = best_s;
      }
    }
  });
}

void ExtremumDimGrad(const float* g, const int64_t* arg, float* grad,
                     int64_t outer, int64_t size, int64_t inner) {
  // Each (o, i) scatters to a distinct slot, so outer-parallelism is safe.
  ParallelFor(0, outer, OuterGrain(size * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t i = 0; i < inner; ++i) {
        const int64_t flat = o * inner + i;
        grad[o * size * inner + arg[flat] * inner + i] += g[flat];
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Softmax.

void SoftmaxKernel(const KernelBackend& backend, const float* a, float* out,
                   int64_t outer, int64_t size, int64_t inner) {
  ParallelFor(0, outer, OuterGrain(size * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      backend.softmax_slice(a + o * size * inner, out + o * size * inner,
                            size, inner);
    }
  });
}

}  // namespace d2stgnn::kernels
