// AVX2 kernel backend.
//
// Vectorizes across INDEPENDENT output elements (8 float lanes), so
// each lane executes exactly the scalar backend's accumulation chain
// for its element. Conv and dense both read transposed weight copies
// (contiguous across output channels / output features), broadcasting
// one input value per tap: vmulps + vaddps with no gathers (no FMA:
// this TU is compiled with -ffp-contract=off, and -mavx2 does not
// enable FMA codegen). IEEE-754 single-precision mul/add are identical
// scalar vs vector, so results are bit-identical to the scalar
// backend. Conv's remainder elements (sizes not divisible by 8) run
// the scalar chain directly; dense runs them in masked lanes. Dense
// without the transposed copy (the float layers, whose weights change
// between calls) loads 8x8 tiles of the row-major weights and
// transposes them in registers, so its lanes run the same chains.
//
// One chain per vector would leave the adder waiting on its own
// latency, so the forwards keep several chains in flight: conv runs
// kConvPositions output positions x kConvBlocks eight-channel blocks
// per pass, dense kDenseBlocks eight-output blocks. Interleaving
// independent chains changes no chain.
//
// The conv backward lists, per output channel, the positions whose
// gradient is nonzero (most are zero behind max-pool and ReLU) with a
// compare mask and a compaction table instead of a branch per
// position, then walks the list in the scalar loop's order and
// vectorizes each entry's updates: across the kernel taps of a weight
// gradient row (through x unrolled per output position) and across the
// input channels of the input gradient, with w permuted to put them
// last: where the layer's geometry has an instance (the fast C3F2's
// conv2 and conv3), a whole input row accumulates in registers over
// the output rows that cover it and is transposed out once; elsewhere
// each entry updates an HWC copy of gx through memory. Every gradient
// element keeps the scalar backward's chain.
//
// Quantization and the SGD commit's encode and decode run on 8 float
// lanes for formats of at most 24 bits (FloatCodec: why that is exact),
// and wider formats take the scalar entries. Max-pool over 2x2 windows
// makes 8 outputs of a row per pass with the scalar loop's comparisons
// in its window order. The SGD commit runs 8 entries per pass: the
// float update and the codec on float lanes, and the word packing and
// stuck bits on integer lanes.
//
// This TU is the only one compiled with -mavx2 (x86 builds only; see
// CMakeLists.txt). On other architectures it compiles to a stub that
// reports the backend as unavailable.

#include "nn/kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cstdint>
#include <cstring>
#include <limits>

#include "fixed/qformat.h"

namespace ftnav::kernels {

namespace {

constexpr int kConvPositions = 4;
constexpr int kConvBlocks = 2;
constexpr int kDenseBlocks = 4;

/// Mask selecting lanes [0, n) for n in 0..8.
__m256i first_lanes(int n) {
  static const std::int32_t kOnes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                         0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kOnes + 8 - n));
}

/// Output positions pos[0..P) x channels [oc, oc + 8B) of the channel
/// path: P*B chains, each running the scalar tap order (ic, kh, kw).
/// xbase[p] is input position pos[p]'s window origin in channel 0.
template <int P, int B>
void conv_tile(const float* wt, const float* bias, const float* const* xbase,
               const int* pos, float* y, int oc, const ConvShape& s) {
  __m256 acc[P][B];
  for (int b = 0; b < B; ++b) {
    const __m256 start = _mm256_loadu_ps(bias + oc + 8 * b);
    for (int p = 0; p < P; ++p) acc[p][b] = start;
  }
  const std::size_t in_plane = static_cast<std::size_t>(s.in_h) * s.in_w;
  const float* wp = wt + oc;
  for (int ic = 0; ic < s.in_c; ++ic) {
    for (int kh = 0; kh < s.kernel; ++kh) {
      const std::size_t row =
          ic * in_plane + static_cast<std::size_t>(kh) * s.in_w;
      for (int kw = 0; kw < s.kernel; ++kw) {
        __m256 wv[B];
        for (int b = 0; b < B; ++b) wv[b] = _mm256_loadu_ps(wp + 8 * b);
        for (int p = 0; p < P; ++p) {
          const __m256 xv = _mm256_broadcast_ss(xbase[p] + row + kw);
          for (int b = 0; b < B; ++b)
            acc[p][b] = _mm256_add_ps(acc[p][b], _mm256_mul_ps(wv[b], xv));
        }
        wp += s.out_c;
      }
    }
  }
  const std::size_t plane = static_cast<std::size_t>(s.out_h) * s.out_w;
  for (int p = 0; p < P; ++p) {
    for (int b = 0; b < B; ++b) {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, acc[p][b]);
      float* ybase = y + static_cast<std::size_t>(oc + 8 * b) * plane + pos[p];
      for (int j = 0; j < 8; ++j)
        ybase[static_cast<std::size_t>(j) * plane] = lanes[j];
    }
  }
}

template <int B>
void conv_tile_any(int positions, const float* wt, const float* bias,
                   const float* const* xbase, const int* pos, float* y, int oc,
                   const ConvShape& s) {
  static_assert(kConvPositions == 4);
  switch (positions) {
    case 4: conv_tile<4, B>(wt, bias, xbase, pos, y, oc, s); break;
    case 3: conv_tile<3, B>(wt, bias, xbase, pos, y, oc, s); break;
    case 2: conv_tile<2, B>(wt, bias, xbase, pos, y, oc, s); break;
    default: conv_tile<1, B>(wt, bias, xbase, pos, y, oc, s); break;
  }
}

void conv2d_avx2(const float* w, const float* wt, const float* bias,
                 const float* x, float* y, const ConvShape& s) {
  if (s.out_c >= 8 && wt != nullptr) {
    // Lane j handles output channel oc+j at a fixed spatial position,
    // through the transposed weights wt[ic][kh][kw][oc] (contiguous
    // across output channels for a fixed tap): broadcast one input
    // value, load 8 neighboring output-channel weights, vmulps +
    // vaddps. No gathers regardless of stride, and full lanes even
    // when the output feature map is tiny (late conv stages) -- the
    // geometry where column vectorization runs mostly scalar. A pass
    // takes up to kConvPositions consecutive positions of the
    // flattened output plane, so a 2x2 map still fills one.
    const int plane = s.out_h * s.out_w;
    const int blocks = s.out_c / 8;
    for (int p0 = 0; p0 < plane; p0 += kConvPositions) {
      const int positions = std::min(kConvPositions, plane - p0);
      int pos[kConvPositions];
      const float* xbase[kConvPositions];
      for (int p = 0; p < positions; ++p) {
        pos[p] = p0 + p;
        const int oh = pos[p] / s.out_w;
        const int ow = pos[p] % s.out_w;
        xbase[p] = x + static_cast<std::size_t>(oh * s.stride) * s.in_w +
                   ow * s.stride;
      }
      int block = 0;
      for (; block + kConvBlocks <= blocks; block += kConvBlocks)
        conv_tile_any<kConvBlocks>(positions, wt, bias, xbase, pos, y,
                                   8 * block, s);
      for (; block < blocks; ++block)
        conv_tile_any<1>(positions, wt, bias, xbase, pos, y, 8 * block, s);
      // Remainder output channels: the scalar chain verbatim.
      for (int p = 0; p < positions; ++p) {
        for (int oc = 8 * blocks; oc < s.out_c; ++oc) {
          float acc = bias[oc];
          for (int ic = 0; ic < s.in_c; ++ic) {
            for (int kh = 0; kh < s.kernel; ++kh) {
              const float* wrow =
                  w + ((static_cast<std::size_t>(oc) * s.in_c + ic) *
                           s.kernel +
                       kh) *
                          s.kernel;
              const float* xrow =
                  xbase[p] +
                  (static_cast<std::size_t>(ic) * s.in_h + kh) * s.in_w;
              for (int kw = 0; kw < s.kernel; ++kw)
                acc += wrow[kw] * xrow[kw];
            }
          }
          y[static_cast<std::size_t>(oc) * plane + pos[p]] = acc;
        }
      }
    }
    return;
  }
  // Narrow-out_c fallback: lane j handles output column ow+j, reading
  // input column (ow+j)*stride + kw: contiguous for stride 1, a gather
  // otherwise.
  const __m256i gather_index = _mm256_setr_epi32(
      0, s.stride, 2 * s.stride, 3 * s.stride, 4 * s.stride, 5 * s.stride,
      6 * s.stride, 7 * s.stride);
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      const int ih0 = oh * s.stride;
      float* yrow = y + (static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w;
      int ow = 0;
      for (; ow + 8 <= s.out_w; ow += 8) {
        __m256 acc = _mm256_broadcast_ss(bias + oc);
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const float* wrow =
                w + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                     kh) *
                        s.kernel;
            const float* xrow =
                x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                        s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) {
              const __m256 wv = _mm256_broadcast_ss(wrow + kw);
              const __m256 xv =
                  s.stride == 1
                      ? _mm256_loadu_ps(xrow + kw)
                      : _mm256_i32gather_ps(xrow + kw, gather_index, 4);
              acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, xv));
            }
          }
        }
        _mm256_storeu_ps(yrow + ow, acc);
      }
      // Remainder columns: the scalar chain verbatim.
      for (; ow < s.out_w; ++ow) {
        float acc = bias[oc];
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const float* wrow =
                w + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                     kh) *
                        s.kernel;
            const float* xrow =
                x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                        s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) acc += wrow[kw] * xrow[kw];
          }
        }
        yrow[ow] = acc;
      }
    }
  }
}

/// c[k] = {r[0][k], r[1][k], ..., r[7][k]} for k < 8: the 8x8 tile
/// whose rows start at r[0..8), transposed. Each 128-bit half is loaded
/// from its own row, so only in-lane unpacks and shuffles remain.
[[gnu::always_inline]] inline void load_tile_transposed(
    const float* const* r, __m256 c[8]) {
  for (int h = 0; h < 2; ++h) {
    __m256 t[4];
    for (int j = 0; j < 4; ++j)
      t[j] = _mm256_insertf128_ps(
          _mm256_castps128_ps256(_mm_loadu_ps(r[j] + 4 * h)),
          _mm_loadu_ps(r[j + 4] + 4 * h), 1);
    const __m256 u0 = _mm256_unpacklo_ps(t[0], t[1]);
    const __m256 u1 = _mm256_unpackhi_ps(t[0], t[1]);
    const __m256 u2 = _mm256_unpacklo_ps(t[2], t[3]);
    const __m256 u3 = _mm256_unpackhi_ps(t[2], t[3]);
    c[4 * h + 0] = _mm256_shuffle_ps(u0, u2, _MM_SHUFFLE(1, 0, 1, 0));
    c[4 * h + 1] = _mm256_shuffle_ps(u0, u2, _MM_SHUFFLE(3, 2, 3, 2));
    c[4 * h + 2] = _mm256_shuffle_ps(u1, u3, _MM_SHUFFLE(1, 0, 1, 0));
    c[4 * h + 3] = _mm256_shuffle_ps(u1, u3, _MM_SHUFFLE(3, 2, 3, 2));
  }
}

/// 8x8 tiles through registers, one strip of 8 columns of w at a time:
/// a strip writes 8 whole rows of wt, in order, and reads only its
/// columns of w, so no row of wt is revisited once written (at 32 x
/// 288, w and wt together overflow L1, and rows of wt filled 8 floats
/// per pass were evicted between passes). A ragged last strip or
/// tile is moved back to overlap the one before it and rewrites some
/// elements with the values they hold; a w with fewer than 8 rows or
/// columns is copied one by one.
void transpose_avx2(const float* w, float* wt, int rows, int cols) {
  const auto R = static_cast<std::size_t>(rows);
  const auto C = static_cast<std::size_t>(cols);
  if (R < 8 || C < 8) {
    for (std::size_t c = 0; c < C; ++c)
      for (std::size_t r = 0; r < R; ++r) wt[c * R + r] = w[r * C + c];
    return;
  }
  for (std::size_t strip = 0; strip < C; strip += 8) {
    const std::size_t c0 = std::min(strip, C - 8);
    for (std::size_t tile = 0; tile < R; tile += 8) {
      const std::size_t r0 = std::min(tile, R - 8);
      const float* r[8];
      for (std::size_t j = 0; j < 8; ++j) r[j] = w + (r0 + j) * C + c0;
      __m256 c[8];
      load_tile_transposed(r, c);
      for (std::size_t k = 0; k < 8; ++k)
        _mm256_storeu_ps(wt + (c0 + k) * R + r0, c[k]);
    }
  }
}

/// Outputs [o, o + 8B): B chains. With kRows the weights come from the
/// row-major w, one transposed 8x8 tile per 8 inputs and block (rows
/// past out_f repeat the last row; their lanes are never stored, and
/// the last in_f % 8 inputs are read from a zero-padded copy of the
/// tile); otherwise from the transposed wt[i][o] (contiguous across
/// outputs for a fixed input). Either way lane j of block b adds
/// w[o + 8b + j][i] * x[i] for i ascending. With kPartial the last
/// block keeps only the lanes set in `last`: its loads are masked, so
/// it reads nothing past wt or bias, and its dead lanes are not stored.
template <int B, bool kPartial, bool kRows>
void dense_tile(const float* w, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f, int o,
                __m256i last) {
  const auto load = [last](const float* p, int b) {
    return kPartial && b == B - 1 ? _mm256_maskload_ps(p, last)
                                  : _mm256_loadu_ps(p);
  };
  __m256 acc[B];
  for (int b = 0; b < B; ++b) acc[b] = load(bias + o + 8 * b, b);
  if constexpr (kRows) {
    const float* rows[B][8];
    for (int b = 0; b < B; ++b)
      for (int j = 0; j < 8; ++j)
        rows[b][j] =
            w + static_cast<std::size_t>(std::min(o + 8 * b + j, out_f - 1)) *
                    in_f;
    const auto add_tile = [&](int b, const float* const* r, int i, int n) {
      __m256 c[8];
      load_tile_transposed(r, c);
      for (int k = 0; k < n; ++k)
        acc[b] = _mm256_add_ps(
            acc[b], _mm256_mul_ps(c[k], _mm256_broadcast_ss(x + i + k)));
    };
    int i = 0;
    for (; i + 8 <= in_f; i += 8) {
      for (int b = 0; b < B; ++b) {
        const float* r[8];
        for (int j = 0; j < 8; ++j) r[j] = rows[b][j] + i;
        add_tile(b, r, i, 8);
      }
    }
    if (i < in_f) {
      const int n = in_f - i;
      for (int b = 0; b < B; ++b) {
        float tile[8][8] = {};
        const float* r[8];
        for (int j = 0; j < 8; ++j) {
          std::copy(rows[b][j] + i, rows[b][j] + in_f, tile[j]);
          r[j] = tile[j];
        }
        add_tile(b, r, i, n);
      }
    }
  } else {
    (void)w;
    for (int i = 0; i < in_f; ++i) {
      const __m256 xv = _mm256_broadcast_ss(x + i);
      const float* row = wt + static_cast<std::size_t>(i) * out_f + o;
      for (int b = 0; b < B; ++b)
        acc[b] =
            _mm256_add_ps(acc[b], _mm256_mul_ps(load(row + 8 * b, b), xv));
    }
  }
  for (int b = 0; b < B; ++b) {
    if (kPartial && b == B - 1)
      _mm256_maskstore_ps(y + o + 8 * b, last, acc[b]);
    else
      _mm256_storeu_ps(y + o + 8 * b, acc[b]);
  }
}

template <bool kRows>
void dense_blocks(const float* w, const float* wt, const float* bias,
                  const float* x, float* y, int in_f, int out_f) {
  // Lane j of block b handles output o+8b+j. A final partial block
  // runs in masked lanes, so no output falls back to a scalar chain.
  static_assert(kDenseBlocks == 4);
  const int full = out_f / 8;
  const __m256i last = first_lanes(std::max(1, out_f - 8 * full));
  int block = 0;
  for (; block + kDenseBlocks <= full; block += kDenseBlocks)
    dense_tile<kDenseBlocks, false, kRows>(w, wt, bias, x, y, in_f, out_f,
                                           8 * block, last);
  const int o = 8 * block;
  const auto tile = [&](auto blocks, auto partial) {
    dense_tile<decltype(blocks)::value, decltype(partial)::value, kRows>(
        w, wt, bias, x, y, in_f, out_f, o, last);
  };
  using std::integral_constant;
  using Partial = integral_constant<bool, true>;
  using Full = integral_constant<bool, false>;
  if (out_f % 8 != 0) {
    switch (full - block) {
      case 3: tile(integral_constant<int, 4>{}, Partial{}); break;
      case 2: tile(integral_constant<int, 3>{}, Partial{}); break;
      case 1: tile(integral_constant<int, 2>{}, Partial{}); break;
      default: tile(integral_constant<int, 1>{}, Partial{}); break;
    }
  } else {
    switch (full - block) {
      case 3: tile(integral_constant<int, 3>{}, Full{}); break;
      case 2: tile(integral_constant<int, 2>{}, Full{}); break;
      case 1: tile(integral_constant<int, 1>{}, Full{}); break;
      default: break;
    }
  }
}

void dense_avx2(const float* w, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f) {
  if (wt == nullptr)
    dense_blocks<true>(w, wt, bias, x, y, in_f, out_f);
  else
    dense_blocks<false>(w, wt, bias, x, y, in_f, out_f);
}

void relu_avx2(float* x, std::size_t n) {
  // max_ps(v, +0.0) matches `v > 0 ? v : 0` exactly: for v <= 0, v
  // NaN, and v = -0.0 the second operand (+0.0) is returned, which is
  // the scalar result in every case.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward_avx2(const float* x, const float* gy, float* gx,
                        std::size_t n) {
  // The ordered greater-than mask is clear for x <= 0, -0.0 and NaN,
  // where AND-ing it with gy yields +0.0: the scalar select.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 live =
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(gx + i, _mm256_and_ps(live, _mm256_loadu_ps(gy + i)));
  }
  for (; i < n; ++i) gx[i] = x[i] > 0.0f ? gy[i] : 0.0f;
}

/// kSetLanes[m]: the indices of m's set bits in ascending order, one
/// nibble each from the lowest.
constexpr std::array<std::uint32_t, 256> kSetLanes = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t m = 0; m < 256; ++m) {
    int slot = 0;
    for (std::uint32_t lane = 0; lane < 8; ++lane)
      if ((m >> lane) & 1u) table[m] |= lane << (4 * slot++);
  }
  return table;
}();

/// Positions per pass of the conv backward's nonzero list.
constexpr int kListChunk = 512;

/// Writes the positions p in [begin, end) whose gradient passes the
/// scalar loop's test (`g[p] != 0.0f`: false for +-0.0, true for NaN)
/// to list, in ascending order, and returns how many. No branch
/// depends on a gradient: 8 positions per pass go through an unordered
/// not-equal mask and kSetLanes, and the tail through a counted store.
/// list needs end - begin + 8 entries; the slack takes whole-vector
/// stores.
int nonzero_positions(const float* g, int begin, int end, int* list) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256i nibbles = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
  const __m256i low = _mm256_set1_epi32(0xf);
  int count = 0;
  int p = begin;
  for (; p + 8 <= end; p += 8) {
    const auto mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(g + p), zero, _CMP_NEQ_UQ)));
    const __m256i lanes = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(kSetLanes[mask])),
                          nibbles),
        low);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(list + count),
                        _mm256_add_epi32(_mm256_set1_epi32(p), lanes));
    count += std::popcount(mask);
  }
  for (; p < end; ++p) {
    list[count] = p;
    count += g[p] != 0.0f ? 1 : 0;
  }
  return count;
}

/// Taps [t0, t0 + 8V) of one weight-gradient row: row[t] += g *
/// col[t] for each listed position in list order, with the V vectors
/// held in registers from one load to one store. With kPartial the
/// last vector keeps only the lanes set in `tail`: its row load and
/// store are masked, and its other lanes (taps past the row, read from
/// the next column or xcol's slack) are dropped.
template <int V, bool kPartial>
void accumulate_taps(float* row, const float* xcol, const float* grads,
                     const int* list, int listed, int taps, int t0,
                     __m256i tail) {
  __m256 acc[V];
  for (int v = 0; v < V; ++v)
    acc[v] = kPartial && v == V - 1
                 ? _mm256_maskload_ps(row + t0 + 8 * v, tail)
                 : _mm256_loadu_ps(row + t0 + 8 * v);
  for (int k = 0; k < listed; ++k) {
    const int pos = list[k];
    const __m256 gv = _mm256_set1_ps(grads[pos]);
    const float* col = xcol + static_cast<std::size_t>(pos) * taps + t0;
    for (int v = 0; v < V; ++v)
      acc[v] = _mm256_add_ps(acc[v],
                             _mm256_mul_ps(gv, _mm256_loadu_ps(col + 8 * v)));
  }
  for (int v = 0; v < V; ++v) {
    if (kPartial && v == V - 1)
      _mm256_maskstore_ps(row + t0 + 8 * v, tail, acc[v]);
    else
      _mm256_storeu_ps(row + t0 + 8 * v, acc[v]);
  }
}

/// Vectors of one weight-gradient row held in registers at a time.
constexpr int kTapVectors = 8;

/// accumulate_taps for a runtime vector count of 1..V.
template <bool kPartial, int V = kTapVectors>
void accumulate_taps_any(int vectors, float* row, const float* xcol,
                         const float* grads, const int* list, int listed,
                         int taps, int t0, __m256i tail) {
  if constexpr (V > 0) {
    if (vectors == V)
      accumulate_taps<V, kPartial>(row, xcol, grads, list, listed, taps, t0,
                                   tail);
    else
      accumulate_taps_any<kPartial, V - 1>(vectors, row, xcol, grads, list,
                                           listed, taps, t0, tail);
  }
}

/// Weight and bias gradients. x is unrolled into xcol[pos][tap] (tap =
/// (ic, kh, kw), the order of a gw row), so each nonzero output
/// gradient is one contiguous update gw[oc][..] += g * xcol[pos][..]:
/// lane j is tap t+j, and every gw element still adds its terms in
/// position order. A row is updated kTapVectors vectors at a time,
/// each block held in registers across the channel's whole list.
void conv_backward_params(const float* x, const float* gy, float* gw,
                          float* gb, float* xcol, const ConvShape& s) {
  const int taps = s.in_c * s.kernel * s.kernel;
  const int plane = s.out_h * s.out_w;
  const std::size_t in_plane = static_cast<std::size_t>(s.in_h) * s.in_w;
  const __m256i row_lanes = first_lanes(std::min(8, s.kernel));
  float* dst = xcol;
  for (int pos = 0; pos < plane; ++pos) {
    const float* xbase =
        x + static_cast<std::size_t>(pos / s.out_w * s.stride) * s.in_w +
        pos % s.out_w * s.stride;
    for (int ic = 0; ic < s.in_c; ++ic) {
      for (int kh = 0; kh < s.kernel; ++kh, dst += s.kernel) {
        const float* src =
            xbase + ic * in_plane + static_cast<std::size_t>(kh) * s.in_w;
        if (s.kernel <= 8)  // lanes past the row are overwritten next
          _mm256_storeu_ps(dst, _mm256_maskload_ps(src, row_lanes));
        else
          std::copy(src, src + s.kernel, dst);
      }
    }
  }
  constexpr int kBlockTaps = 8 * kTapVectors;
  const __m256i tail = first_lanes(taps % 8 == 0 ? 8 : taps % 8);
  int list[kListChunk + 8];
  for (int oc = 0; oc < s.out_c; ++oc) {
    float* row = gw + static_cast<std::size_t>(oc) * taps;
    const float* grads = gy + static_cast<std::size_t>(oc) * plane;
    for (int begin = 0; begin < plane; begin += kListChunk) {
      const int listed = nonzero_positions(
          grads, begin, std::min(plane, begin + kListChunk), list);
      for (int k = 0; k < listed; ++k) gb[oc] += grads[list[k]];
      for (int t0 = 0; t0 < taps; t0 += kBlockTaps) {
        const int block = std::min(kBlockTaps, taps - t0);
        const int vectors = (block + 7) / 8;
        if (block % 8 != 0)
          accumulate_taps_any<true>(vectors, row, xcol, grads, list, listed,
                                    taps, t0, tail);
        else
          accumulate_taps_any<false>(vectors, row, xcol, grads, list, listed,
                                     taps, t0, tail);
      }
    }
  }
}

/// Input gradient through memory, for the shapes input_gradient_for
/// has no input_rows instance for: lane j is input channel ic+j of one
/// input position. gx accumulates in HWC order with each position's
/// channels padded to `cs`, a multiple of 8, and w is permuted to
/// [oc][kh][kw][cs] to match: a kernel row's taps are then one
/// contiguous run of K*cs floats in both, and overlapping windows share
/// whole 8-lane cells, which keeps store-to-load forwarding intact.
/// Padding lanes are never copied out.
void input_hwc(const float* w, const float* gy, float* gx, float* scratch,
               const ConvShape& s) {
  const int cs = (s.in_c + 7) / 8 * 8;
  const int kk = s.kernel * s.kernel;
  const std::size_t run = static_cast<std::size_t>(s.kernel) * cs;
  const std::size_t in_plane = static_cast<std::size_t>(s.in_h) * s.in_w;
  const std::size_t permuted = static_cast<std::size_t>(s.out_c) * kk * cs;
  float* wp = scratch;
  float* hwc = scratch + permuted;
  if (cs != s.in_c) std::fill(wp, wp + permuted, 0.0f);
  for (int oc = 0; oc < s.out_c; ++oc) {
    const float* src = w + static_cast<std::size_t>(oc) * s.in_c * kk;
    float* dst = wp + static_cast<std::size_t>(oc) * kk * cs;
    if (cs == s.in_c) {  // w[oc] as an in_c x kk matrix, transposed
      transpose_avx2(src, dst, s.in_c, kk);
      continue;
    }
    for (int ic = 0; ic < s.in_c; ++ic)
      for (int t = 0; t < kk; ++t)
        dst[static_cast<std::size_t>(t) * cs + ic] = *src++;
  }
  std::fill(hwc, hwc + in_plane * cs, 0.0f);
  // Listed one output row at a time, so an entry is its column.
  int list[kListChunk + 8];
  for (int oc = 0; oc < s.out_c; ++oc) {
    const float* wrun = wp + static_cast<std::size_t>(oc) * kk * cs;
    for (int oh = 0; oh < s.out_h; ++oh) {
      const float* grads =
          gy + (static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w;
      for (int begin = 0; begin < s.out_w; begin += kListChunk) {
        const int listed = nonzero_positions(
            grads, begin, std::min(s.out_w, begin + kListChunk), list);
        for (int k = 0; k < listed; ++k) {
          const int ow = list[k];
          const __m256 gv = _mm256_set1_ps(grads[ow]);
          const float* src = wrun;
          for (int kh = 0; kh < s.kernel; ++kh, src += run) {
            float* dst =
                hwc + (static_cast<std::size_t>(oh * s.stride + kh) * s.in_w +
                       ow * s.stride) *
                          cs;
            for (std::size_t i = 0; i < run; i += 8)
              _mm256_storeu_ps(
                  dst + i, _mm256_add_ps(
                               _mm256_loadu_ps(dst + i),
                               _mm256_mul_ps(gv, _mm256_loadu_ps(src + i))));
          }
        }
      }
    }
  }
  for (int ic = 0; ic < s.in_c; ++ic)
    for (std::size_t p = 0; p < in_plane; ++p)
      gx[ic * in_plane + p] = hwc[p * cs + ic];
}

/// Output rows (channel, row) input_rows lists at most; layers with
/// more take input_hwc.
constexpr int kMaxGradRows = 256;

/// w[oc] as an in_c x kk matrix, in_c a multiple of 8, transposed to
/// [kk][in_c] in dst: an 8x8 register tile per 8 channels and 8 taps,
/// and a gather per 8 channels for each remaining tap.
void permute_channel(const float* src, float* dst, int in_c, int kk) {
  const __m256i rows = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(kk));
  for (int ic = 0; ic < in_c; ic += 8) {
    const float* base = src + static_cast<std::size_t>(ic) * kk;
    int t = 0;
    for (; t + 8 <= kk; t += 8) {
      const float* r[8];
      for (int j = 0; j < 8; ++j) r[j] = base + j * kk + t;
      __m256 c[8];
      load_tile_transposed(r, c);
      for (int k = 0; k < 8; ++k)
        _mm256_storeu_ps(dst + (t + k) * in_c + ic, c[k]);
    }
    for (; t < kk; ++t)
      _mm256_storeu_ps(dst + t * in_c + ic,
                       _mm256_i32gather_ps(base + t, rows, 4));
  }
}

/// acc[iw][v] += g[ow] * wk[kw][v] for iw = ow * S + kw, over one output
/// row's OW gradients in order. keep[ow] is all ones when g[ow] passes
/// `g != 0.0f` and zero when it fails; a failing gradient's product is
/// masked to +0.0, as the scalar loop skips it: a zero gradient times
/// an inf or NaN weight would otherwise enter the chain.
template <int K, int S, int OW, int V>
[[gnu::always_inline]] inline void accumulate_row(
    __m256 (&acc)[(OW - 1) * S + K][V], const float* g,
    const std::int32_t* keep, const float* wk, int in_c) {
  __m256 wv[K][V];
  for (int kw = 0; kw < K; ++kw)
    for (int v = 0; v < V; ++v)
      wv[kw][v] = _mm256_loadu_ps(wk + kw * in_c + 8 * v);
  for (int ow = 0; ow < OW; ++ow) {
    const __m256 gv = _mm256_broadcast_ss(g + ow);
    const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(keep[ow]));
    for (int kw = 0; kw < K; ++kw)
      for (int v = 0; v < V; ++v)
        acc[ow * S + kw][v] = _mm256_add_ps(
            acc[ow * S + kw][v],
            _mm256_and_ps(_mm256_mul_ps(gv, wv[kw][v]), mask));
  }
}

/// Input gradient rows in registers, for kernel K, stride S and OW
/// output columns whose windows cover an input row exactly (in_w ==
/// (OW - 1) * S + K), and input channels in whole groups of V vectors.
/// An output row (oc, oh) is live when one of its gradients passes
/// `g != 0.0f`; only a live channel's weights are permuted (to
/// [kh][kw][ic]). For each input row ih and V vectors of channels,
/// acc[iw][v] lane j runs the chain of gx[cb + 8v + j][ih][iw]: +0.0,
/// then g * w over the live rows that cover ih in (oc, oh) order and
/// each row's columns in order. A row that is not live adds nothing,
/// as in the scalar loop; a zero gradient of a live row adds +0.0,
/// which changes nothing, since a chain that starts at +0.0 never holds
/// -0.0 under round-to-nearest. The rows are built in HWC order and
/// copied out with a transpose.
template <int K, int S, int OW, int V>
void input_rows(const float* w, const float* gy, float* gx, float* scratch,
                const ConvShape& s) {
  constexpr int kInW = (OW - 1) * S + K;
  const int kk = K * K;
  const int rows = s.out_c * s.out_h;
  bool live[kMaxGradRows];
  std::int32_t keep[kMaxGradRows * OW];
  for (int r = 0; r < rows; ++r) {
    bool any = false;
    for (int ow = 0; ow < OW; ++ow) {
      const bool pass = gy[r * OW + ow] != 0.0f;
      keep[r * OW + ow] = pass ? -1 : 0;
      any |= pass;
    }
    live[r] = any;
  }
  float* wp = scratch;
  float* hwc = scratch + static_cast<std::size_t>(s.out_c) * kk * s.in_c;
  for (int oc = 0; oc < s.out_c; ++oc) {
    const bool* channel = live + oc * s.out_h;
    if (std::find(channel, channel + s.out_h, true) == channel + s.out_h)
      continue;
    const std::size_t at = static_cast<std::size_t>(oc) * s.in_c * kk;
    permute_channel(w + at, wp + at, s.in_c, kk);
  }
  int grads_at[kMaxGradRows];    // a listed row's gradients in gy
  int weights_at[kMaxGradRows];  // and its kernel row in wp
  for (int ih = 0; ih < s.in_h; ++ih) {
    const int first = std::max(0, (ih - K + S) / S);
    const int last = std::min(s.out_h - 1, ih / S);
    int listed = 0;
    for (int oc = 0; oc < s.out_c; ++oc)
      for (int oh = first; oh <= last; ++oh) {
        const int r = oc * s.out_h + oh;
        grads_at[listed] = r * OW;
        weights_at[listed] = (oc * kk + (ih - oh * S) * K) * s.in_c;
        listed += live[r] ? 1 : 0;
      }
    float* dst = hwc + static_cast<std::size_t>(ih) * kInW * s.in_c;
    for (int cb = 0; cb < s.in_c; cb += 8 * V) {
      __m256 acc[kInW][V];
      for (auto& cell : acc)
        for (__m256& a : cell) a = _mm256_setzero_ps();
      for (int k = 0; k < listed; ++k) {
        accumulate_row<K, S, OW, V>(acc, gy + grads_at[k], keep + grads_at[k],
                                    wp + weights_at[k] + cb, s.in_c);
      }
      for (int iw = 0; iw < kInW; ++iw)
        for (int v = 0; v < V; ++v)
          _mm256_storeu_ps(dst + iw * s.in_c + cb + 8 * v, acc[iw][v]);
    }
  }
  transpose_avx2(hwc, gx, s.in_h * kInW, s.in_c);
}

using InputGradientFn = void (*)(const float*, const float*, float*, float*,
                                 const ConvShape&);

/// The input gradient for s: input_rows where it has an instance (the
/// fast C3F2's conv2, 16x9x9 -> 32x4x4 k3 s2, and conv3, 32x4x4 ->
/// 32x2x2 k3 s1, or any layer with the same row geometry), else
/// input_hwc.
InputGradientFn input_gradient_for(const ConvShape& s) {
  struct Instance {
    int kernel, stride, out_w, vectors;
    InputGradientFn fn;
  };
  static constexpr Instance kInstances[] = {
      {3, 2, 4, 1, input_rows<3, 2, 4, 1>},
      {3, 1, 2, 2, input_rows<3, 1, 2, 2>},
  };
  if (s.out_c * s.out_h <= kMaxGradRows)
    for (const Instance& i : kInstances)
      if (s.kernel == i.kernel && s.stride == i.stride &&
          s.out_w == i.out_w &&
          s.in_w == (i.out_w - 1) * i.stride + i.kernel &&
          s.in_c % (8 * i.vectors) == 0)
        return i.fn;
  return input_hwc;
}

void conv2d_backward_avx2(const float* w, const float* x, const float* gy,
                          float* gw, float* gb, float* gx, float* scratch,
                          const ConvShape& s) {
  conv_backward_params(x, gy, gw, gb, scratch, s);
  if (gx != nullptr) input_gradient_for(s)(w, gy, gx, scratch, s);
}

/// The widest format whose every value, raw bound and raw integer a
/// float holds exactly: a float significand has 24 bits.
constexpr int kFloatLaneBits = 24;

/// QFormat's codec on 8 float lanes, for formats of at most
/// kFloatLaneBits bits. raw() is encode's raw value: v * 2^f, NaN to +0
/// through an ordered-compare mask, `r > max ? max : r` (min_ps(max,
/// r)), then `r < min ? min : r` (max_ps(min, r)), and cvtps_epi32,
/// which rounds to nearest-even (the program never changes the rounding
/// mode). value() is decode's value: float(raw) * 2^-f.
///
/// Why that is QFormat's double arithmetic to the bit: 2^f and 2^-f
/// are powers of two, so v * 2^f is exact in float unless it overflows
/// to +-inf, which lies beyond both bounds as the double product does;
/// rounding commutes with a clamp to integral bounds; and every raw
/// integer of the format (|raw| <= 2^23) converts to float exactly, as
/// does its product with 2^-f, which is normal or +0. A rounded -0.0
/// becomes the integer 0, so value() never returns -0.0, as QFormat's
/// round trip does not.
struct FloatCodec {
  explicit FloatCodec(const QFormat& format)
      : scale(_mm256_set1_ps(static_cast<float>(format.scale()))),
        inv_scale(_mm256_set1_ps(static_cast<float>(format.resolution()))),
        raw_max(_mm256_set1_ps(static_cast<float>(format.raw_max_bound()))),
        raw_min(_mm256_set1_ps(static_cast<float>(format.raw_min_bound()))),
        word_mask(_mm256_set1_epi32(static_cast<int>(format.word_mask()))),
        sign_mask(_mm256_set1_epi32(
            static_cast<int>(std::uint32_t{1} << format.sign_bit()))),
        extend(_mm_cvtsi32_si128(32 - format.total_bits())),
        sign_magnitude(format.encoding() == Encoding::kSignMagnitude) {}

  static bool covers(const QFormat& format) noexcept {
    return format.total_bits() <= kFloatLaneBits;
  }

  __m256i raw(__m256 v) const {
    __m256 scaled = _mm256_mul_ps(v, scale);
    scaled = _mm256_and_ps(scaled, _mm256_cmp_ps(scaled, scaled, _CMP_ORD_Q));
    scaled = _mm256_min_ps(raw_max, scaled);
    return _mm256_cvtps_epi32(_mm256_max_ps(raw_min, scaled));
  }
  __m256 value(__m256i raw) const {
    return _mm256_mul_ps(_mm256_cvtepi32_ps(raw), inv_scale);
  }
  /// QFormat::pack: sign-magnitude is |raw| with the sign bit set for a
  /// negative raw; two's complement keeps the low total_bits() bits.
  __m256i pack(__m256i raw) const {
    if (!sign_magnitude) return _mm256_and_si256(raw, word_mask);
    const __m256i negative = _mm256_srai_epi32(raw, 31);
    return _mm256_or_si256(_mm256_abs_epi32(raw),
                           _mm256_and_si256(negative, sign_mask));
  }
  /// QFormat::to_raw: sign-magnitude negates the magnitude when the
  /// sign bit is set; two's complement sign-extends from total_bits().
  __m256i to_raw(__m256i word) const {
    const __m256i value = _mm256_and_si256(word, word_mask);
    if (!sign_magnitude)
      return _mm256_sra_epi32(_mm256_sll_epi32(value, extend), extend);
    const __m256i magnitude = _mm256_andnot_si256(sign_mask, value);
    const __m256i negative =
        _mm256_cmpeq_epi32(_mm256_and_si256(value, sign_mask), sign_mask);
    return _mm256_sub_epi32(_mm256_xor_si256(magnitude, negative), negative);
  }

  __m256 scale, inv_scale, raw_max, raw_min;
  __m256i word_mask, sign_mask;
  __m128i extend;  // 32 - total_bits(): the two's complement shift
  bool sign_magnitude;
};

/// QFormat::quantize as decode(encode(v)) on float lanes; the tail and
/// wider formats run the scalar entry.
void quantize_avx2(float* x, std::size_t n, const QFormat& format) {
  std::size_t i = 0;
  if (FloatCodec::covers(format)) {
    const FloatCodec codec(format);
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(x + i,
                       codec.value(codec.raw(_mm256_loadu_ps(x + i))));
  }
  scalar_ops().quantize(x + i, n - i, format);
}

/// Even and odd elements of the 16 floats at p, as
/// {p[0], p[2], ..., p[14]} and {p[1], p[3], ..., p[15]}. A partial
/// pass loads only the lanes set in `lo` and `hi` (zero elsewhere), so
/// it reads nothing past the row.
void split_columns(const float* p, bool partial, __m256i lo, __m256i hi,
                   __m256& even, __m256& odd) {
  const __m256 a = partial ? _mm256_maskload_ps(p, lo) : _mm256_loadu_ps(p);
  const __m256 b =
      partial ? _mm256_maskload_ps(p + 8, hi) : _mm256_loadu_ps(p + 8);
  // shuffle_ps works within 128-bit halves ({a0 a2 b0 b2 | a4 a6 b4 b6});
  // the 64-bit permute puts the pairs in order.
  even = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0))),
      _MM_SHUFFLE(3, 1, 2, 0)));
  odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1))),
      _MM_SHUFFLE(3, 1, 2, 0)));
}

/// 2x2 windows: lane j of a pass is output ow + j. Each lane folds its
/// window in the scalar order (upper left, upper right, lower left,
/// lower right) from -inf with best = max_ps(v, best), which returns
/// `v > best ? v : best`: the scalar update, so the first of equal
/// maxima wins and NaN is never taken. The same ordered compare picks
/// the argmax offset. A row's last out_w % 8 outputs run the same fold
/// in masked lanes. Other windows run the scalar entry.
void maxpool2d_avx2(const float* x, float* y, int channels, int in_h,
                    int in_w, int window, std::size_t* argmax) {
  if (window != 2) {
    scalar_ops().maxpool2d(x, y, channels, in_h, in_w, window, argmax);
    return;
  }
  const int out_h = in_h / 2;
  const int out_w = in_w / 2;
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const __m256i offsets[4] = {_mm256_set1_epi32(0), _mm256_set1_epi32(1),
                              _mm256_set1_epi32(in_w),
                              _mm256_set1_epi32(in_w + 1)};
  const int tail = out_w % 8;
  const __m256i tail_out = first_lanes(tail);
  const __m256i tail_lo = first_lanes(std::min(8, 2 * tail));
  const __m256i tail_hi = first_lanes(std::max(0, 2 * tail - 8));
  float* out = y;
  for (int c = 0; c < channels; ++c) {
    for (int oh = 0; oh < out_h; ++oh) {
      const std::size_t row =
          (static_cast<std::size_t>(c) * in_h + 2 * oh) * in_w;
      for (int ow = 0; ow < out_w; ow += 8) {
        const bool partial = out_w - ow < 8;
        const std::size_t origin = row + 2 * static_cast<std::size_t>(ow);
        __m256 v[4];
        split_columns(x + origin, partial, tail_lo, tail_hi, v[0], v[1]);
        split_columns(x + origin + in_w, partial, tail_lo, tail_hi, v[2],
                      v[3]);
        __m256 best = neg_inf;
        __m256i picked = offsets[0];
        for (int k = 0; k < 4; ++k) {
          const __m256 greater = _mm256_cmp_ps(v[k], best, _CMP_GT_OQ);
          best = _mm256_max_ps(v[k], best);
          picked = _mm256_castps_si256(_mm256_blendv_ps(
              _mm256_castsi256_ps(picked), _mm256_castsi256_ps(offsets[k]),
              greater));
        }
        const int lanes = partial ? tail : 8;
        if (partial)
          _mm256_maskstore_ps(out, tail_out, best);
        else
          _mm256_storeu_ps(out, best);
        if (argmax != nullptr) {
          alignas(32) std::int32_t offset[8];
          _mm256_store_si256(reinterpret_cast<__m256i*>(offset), picked);
          for (int j = 0; j < lanes; ++j)
            argmax[out - y + j] = origin + 2 * static_cast<std::size_t>(j) +
                                  static_cast<std::size_t>(offset[j]);
        }
        out += lanes;
      }
    }
  }
}

/// Stores the 8 lanes at p[0], p[stride], ..., p[7 * stride].
template <typename T, typename V>
void store_strided(T* p, std::size_t stride, V lanes) {
  static_assert(sizeof(V) == 8 * sizeof(T));
  if (stride == 1) {
    std::memcpy(p, &lanes, sizeof(V));
    return;
  }
  alignas(32) T values[8];
  std::memcpy(values, &lanes, sizeof(V));
  for (std::size_t j = 0; j < 8; ++j) p[j * stride] = values[j];
}

/// 8 entries per pass; the last run.n % 8, and formats wider than
/// kFloatLaneBits, run the scalar entry. Strided words, parameters and
/// copies are stored lane by lane, and strided masks gathered.
void sgd_commit_avx2(const CommitRun& run, float lr, const QFormat& format) {
  std::size_t i = 0;
  const bool gatherable =
      run.word_stride <= static_cast<std::size_t>(INT32_MAX / 8);
  if (gatherable && run.n >= 8 && FloatCodec::covers(format)) {
    const FloatCodec codec(format);
    const __m256 rate = _mm256_set1_ps(lr);
    const __m256 zero = _mm256_setzero_ps();
    const auto ws = static_cast<int>(run.word_stride);
    const __m256i lanes =
        _mm256_setr_epi32(0, ws, 2 * ws, 3 * ws, 4 * ws, 5 * ws, 6 * ws, 7 * ws);
    const auto load_masks = [&](const std::uint32_t* p) {
      return run.word_stride == 1
                 ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
                 : _mm256_i32gather_epi32(reinterpret_cast<const int*>(p),
                                          lanes, 4);
    };
    for (; i + 8 <= run.n; i += 8) {
      const __m256 g = _mm256_add_ps(zero, _mm256_loadu_ps(run.grad + i));
      const __m256 m = _mm256_sub_ps(_mm256_loadu_ps(run.master + i),
                                     _mm256_mul_ps(rate, g));
      _mm256_storeu_ps(run.master + i, m);
      // An unstuck word decodes to the raw value it was packed from.
      __m256i raw = codec.raw(m);
      __m256i w = codec.pack(raw);
      const std::size_t k = i * run.word_stride;
      if (run.and_mask != nullptr) {
        w = _mm256_or_si256(_mm256_and_si256(w, load_masks(run.and_mask + k)),
                            load_masks(run.or_mask + k));
        raw = codec.to_raw(w);
      }
      store_strided(run.words + k, run.word_stride, w);
      const __m256 v = codec.value(raw);
      if (run.param != nullptr)
        store_strided(run.param + i * run.param_stride, run.param_stride, v);
      store_strided(run.copy + i * run.copy_stride, run.copy_stride, v);
    }
  }
  if (i == run.n) return;
  CommitRun rest = run;
  rest.master += i;
  rest.grad += i;
  rest.words += i * run.word_stride;
  if (run.and_mask != nullptr) {
    rest.and_mask += i * run.word_stride;
    rest.or_mask += i * run.word_stride;
  }
  if (run.param != nullptr) rest.param += i * run.param_stride;
  rest.copy += i * run.copy_stride;
  rest.n = run.n - i;
  scalar_ops().sgd_commit(rest, lr, format);
}

constexpr KernelOps kAvx2Ops{"avx2",
                             /*dense_wants_transposed=*/true,
                             /*conv_wants_transposed=*/true,
                             conv2d_avx2,
                             dense_avx2,
                             relu_avx2,
                             relu_backward_avx2,
                             conv2d_backward_avx2,
                             transpose_avx2,
                             quantize_avx2,
                             maxpool2d_avx2,
                             sgd_commit_avx2};

}  // namespace

const KernelOps* avx2_ops() noexcept { return &kAvx2Ops; }

}  // namespace ftnav::kernels

#else  // !defined(__AVX2__)

namespace ftnav::kernels {

const KernelOps* avx2_ops() noexcept { return nullptr; }

}  // namespace ftnav::kernels

#endif
