// Self-timed micro-benchmarks for the hot tensor kernels: blocked vs
// naive GEMM, direct vs im2col/GEMM convolution at the LeNet-5 and
// VGG-mini layer shapes, the fused FedAvg aggregation kernel, and the
// pairwise proximity-matrix build. Where the build carries a SIMD kernel
// table, each op gains a "simd" variant row timed against the scalar
// table inside the same binary (ops::set_simd_enabled). Prints a summary
// table and writes a machine-readable BENCH_kernels.json (one record per
// row: op, variant, shape, ms, gflops, speedup) so later changes can be
// compared against these numbers. Usage: micro_kernels [output.json]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/distance.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "utils/rng.hpp"
#include "utils/stopwatch.hpp"

namespace {

using namespace fedclust;
using bench::JsonRow;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

/// Best-of-reps wall time per call, in ms. Each rep times `iters`
/// back-to-back calls, with iters sized so one rep lasts ~20 ms — small
/// kernels are amortized over many calls, big ones timed individually.
double time_ms(const std::function<void()>& fn) {
  fn();  // warm caches and let scratch reach steady-state capacity
  Stopwatch probe;
  fn();
  const double once = std::max(probe.milliseconds(), 1e-3);
  const int iters = std::clamp(static_cast<int>(20.0 / once), 1, 200);
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, sw.milliseconds() / iters);
  }
  return best;
}

/// Prints one summary line and appends its JSON record. `ms` is the
/// best-of-reps wall time per call; GFLOP/s is 0 when the flop count is
/// n/a, and the speedup is against the baseline variant of the same
/// (op, shape).
void add_result(std::vector<JsonRow>& out, const std::string& op,
                const std::string& variant, const std::string& shape,
                double ms, double flops, double baseline_ms) {
  const double gflops = flops > 0.0 ? flops / (ms * 1e6) : 0.0;
  const double speedup = baseline_ms > 0.0 ? baseline_ms / ms : 1.0;
  std::printf("%-18s %-8s %-22s %10.4f %9.2f %7.2fx\n", op.c_str(),
              variant.c_str(), shape.c_str(), ms, gflops, speedup);
  out.push_back(JsonRow()
                    .add("op", op)
                    .add("variant", variant)
                    .add("shape", shape)
                    .add("ms", ms)
                    .add("gflops", gflops)
                    .add("speedup", speedup));
}

/// True when this binary carries a SIMD kernel table the host can run.
bool simd_available() {
  ops::set_simd_enabled(true);
  return ops::simd_active();
}

void bench_matmul(std::vector<JsonRow>& out) {
  struct Case {
    std::size_t m, k, n;
    const char* tag;
  };
  const Case cases[] = {
      {128, 128, 128, "128x128x128"},
      {256, 256, 256, "256x256x256"},
      {384, 384, 384, "384x384x384"},
      // VGG-mini conv3 lowered to GEMM: (N*Ho*Wo) x (Cin*K*K) x Cout.
      {2048, 144, 32, "2048x144x32"},
  };
  for (const Case& c : cases) {
    const Tensor a = random_tensor({c.m, c.k}, 1);
    const Tensor b = random_tensor({c.k, c.n}, 2);
    Tensor cn, cb;
    const double flops = 2.0 * static_cast<double>(c.m * c.k) *
                         static_cast<double>(c.n);
    // "naive" and "blocked" pin the scalar table so the rows stay
    // comparable with pre-SIMD baselines; "simd" is the dispatched table.
    ops::set_simd_enabled(false);
    const double naive = time_ms([&] { ops::matmul_naive(a, b, cn); });
    const double blocked = time_ms([&] { ops::matmul(a, b, cb); });
    add_result(out, "matmul", "naive", c.tag, naive, flops, naive);
    add_result(out, "matmul", "blocked", c.tag, blocked, flops, naive);
    if (simd_available()) {
      const double simd = time_ms([&] { ops::matmul(a, b, cb); });
      add_result(out, "matmul", "simd", c.tag, simd, flops, naive);
    }
  }
}

void bench_aggregate(std::vector<JsonRow>& out) {
  // FedAvg server reduction: 16 client updates of 100k weights through
  // the weighted-mean kernel both tables implement — one call into a
  // zeroed double accumulator, then the float cast (weighted_average's
  // serial path).
  const std::size_t num = 16, dim = 100'000;
  std::vector<std::vector<float>> updates(num);
  std::vector<const float*> srcs(num);
  std::vector<double> coeff(num, 1.0 / static_cast<double>(num));
  for (std::size_t u = 0; u < num; ++u) {
    Rng rng(700 + u);
    updates[u].resize(dim);
    for (float& x : updates[u]) x = static_cast<float>(rng.uniform(-1, 1));
    srcs[u] = updates[u].data();
  }
  std::vector<double> acc(dim);
  std::vector<float> result(dim);
  const double flops = 2.0 * static_cast<double>(num) *
                       static_cast<double>(dim);
  const char* tag = "16x100000";
  const auto run = [&](const ops::KernelTable& t) {
    return time_ms([&] {
      std::fill(acc.begin(), acc.end(), 0.0);
      t.weighted_accumulate_partial(srcs.data(), coeff.data(), num,
                                    acc.data(), 0, dim);
      std::copy(acc.begin(), acc.end(), result.begin());
    });
  };
  const double scalar = run(ops::scalar_kernels());
  add_result(out, "weighted_avg", "scalar", tag, scalar, flops, scalar);
  if (simd_available()) {
    const double simd = run(*ops::simd_kernels());
    add_result(out, "weighted_avg", "simd", tag, simd, flops, scalar);
  }
}

void bench_pairwise(std::vector<JsonRow>& out) {
  // Proximity matrix between 64 clients' 16k-float layer vectors.
  const std::size_t num = 64, dim = 16'384;
  std::vector<std::vector<float>> vectors(num);
  for (std::size_t i = 0; i < num; ++i) {
    Rng rng(800 + i);
    vectors[i].resize(dim);
    for (float& x : vectors[i]) x = static_cast<float>(rng.uniform(-1, 1));
  }
  // One dot per ordered pair under the Gram trick, plus the norm pass.
  const double flops = 2.0 * static_cast<double>(dim) *
                       (static_cast<double>(num * (num - 1)) / 2.0 +
                        static_cast<double>(num));
  const char* tag = "64x16384";
  ops::set_simd_enabled(false);
  const double scalar =
      time_ms([&] { cluster::pairwise_euclidean(vectors); });
  add_result(out, "pairwise_l2", "scalar", tag, scalar, flops, scalar);
  if (simd_available()) {
    const double simd =
        time_ms([&] { cluster::pairwise_euclidean(vectors); });
    add_result(out, "pairwise_l2", "simd", tag, simd, flops, scalar);
  }
}

struct ConvCase {
  ops::Conv2dSpec spec;
  std::size_t batch, h, w;
  const char* tag;
};

void bench_conv(const ConvCase& c, std::vector<JsonRow>& out) {
  const std::size_t ho = c.spec.out_size(c.h), wo = c.spec.out_size(c.w);
  const Tensor input =
      random_tensor({c.batch, c.spec.in_channels, c.h, c.w}, 3);
  const Tensor weight = random_tensor({c.spec.out_channels, c.spec.in_channels,
                                       c.spec.kernel, c.spec.kernel},
                                      4);
  const Tensor bias = random_tensor({c.spec.out_channels}, 5);
  const Tensor grad_out =
      random_tensor({c.batch, c.spec.out_channels, ho, wo}, 6);
  // MACs * 2, per direction (forward, d/dinput, and d/dparams each do
  // the same multiply-add count; bias terms are negligible).
  const double flops = 2.0 * static_cast<double>(c.batch * ho * wo) *
                       static_cast<double>(c.spec.out_channels *
                                           c.spec.in_channels) *
                       static_cast<double>(c.spec.kernel * c.spec.kernel);

  Tensor output;
  Tensor grad_input(input.shape());
  Tensor grad_weight(weight.shape());
  Tensor grad_bias(bias.shape());
  Tensor columns, pix, grad_cols;

  ops::set_simd_enabled(false);  // scalar rows stay baseline-comparable
  const double fwd_direct = time_ms(
      [&] { ops::conv2d_forward(input, weight, bias, c.spec, output); });
  const double fwd_im2col = time_ms([&] {
    ops::conv2d_forward_im2col(input, weight, bias, c.spec, output, columns,
                               pix);
  });

  const double bwd_direct = time_ms([&] {
    ops::conv2d_backward_input(grad_out, weight, c.spec, grad_input);
    ops::conv2d_backward_params(input, grad_out, c.spec, grad_weight,
                                grad_bias);
  });
  // `columns` still holds the forward expansion — exactly the reuse
  // Conv2d::backward performs. grad_cols is a distinct scratch so the
  // cached columns are not clobbered between reps.
  const double bwd_im2col = time_ms([&] {
    ops::conv2d_backward_params_im2col(grad_out, columns, c.spec, grad_weight,
                                       grad_bias, pix);
    ops::conv2d_backward_input_im2col(grad_out, weight, c.spec, grad_input,
                                      pix, grad_cols);
  });

  add_result(out, "conv2d_forward", "direct", c.tag, fwd_direct, flops,
             fwd_direct);
  add_result(out, "conv2d_forward", "im2col", c.tag, fwd_im2col, flops,
             fwd_direct);
  add_result(out, "conv2d_backward", "direct", c.tag, bwd_direct,
             2.0 * flops, bwd_direct);
  add_result(out, "conv2d_backward", "im2col", c.tag, bwd_im2col,
             2.0 * flops, bwd_direct);
  add_result(out, "conv2d_fwd_bwd", "direct", c.tag, fwd_direct + bwd_direct,
             3.0 * flops, fwd_direct + bwd_direct);
  add_result(out, "conv2d_fwd_bwd", "im2col", c.tag, fwd_im2col + bwd_im2col,
             3.0 * flops, fwd_direct + bwd_direct);

  if (simd_available()) {
    const double fwd_simd = time_ms([&] {
      ops::conv2d_forward_im2col(input, weight, bias, c.spec, output, columns,
                                 pix);
    });
    const double bwd_simd = time_ms([&] {
      ops::conv2d_backward_params_im2col(grad_out, columns, c.spec,
                                         grad_weight, grad_bias, pix);
      ops::conv2d_backward_input_im2col(grad_out, weight, c.spec, grad_input,
                                        pix, grad_cols);
    });
    add_result(out, "conv2d_forward", "simd", c.tag, fwd_simd, flops,
               fwd_direct);
    add_result(out, "conv2d_backward", "simd", c.tag, bwd_simd, 2.0 * flops,
               bwd_direct);
    add_result(out, "conv2d_fwd_bwd", "simd", c.tag, fwd_simd + bwd_simd,
               3.0 * flops, fwd_direct + bwd_direct);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_kernels.json";

  std::printf("kernel tables: scalar%s\n",
              simd_available() ? " + simd (active)" : " only");

  std::printf("%-18s %-8s %-22s %10s %9s %8s\n", "op", "variant", "shape",
              "ms", "GFLOP/s", "speedup");
  std::vector<JsonRow> results;
  bench_matmul(results);
  bench_aggregate(results);
  bench_pairwise(results);

  const ConvCase conv_cases[] = {
      {{3, 6, 5, 0, 1}, 32, 32, 32, "lenet5-conv1 b32 3x32x32"},
      {{6, 16, 5, 0, 1}, 32, 14, 14, "lenet5-conv2 b32 6x14x14"},
      {{16, 16, 3, 1, 1}, 8, 32, 32, "vgg-mini-conv2 b8 16x32x32"},
      {{16, 32, 3, 1, 1}, 8, 16, 16, "vgg-mini-conv3 b8 16x16x16"},
      {{32, 64, 3, 1, 1}, 8, 8, 8, "vgg-mini-conv4 b8 32x8x8"},
  };
  for (const ConvCase& c : conv_cases) bench_conv(c, results);

  bench::write_json_rows(json_path, results);
  std::printf("\nwrote %s (%zu records)\n", json_path.c_str(), results.size());
  return 0;
}
