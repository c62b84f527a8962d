// Tests for ScratchArena and the zero-per-batch-allocation property of
// the im2col Conv2d path that it exists to provide.
#include "tensor/scratch.hpp"

#include <gtest/gtest.h>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"
#include "utils/rng.hpp"

namespace fedclust {
namespace {

TEST(ScratchArena, AcquireShapesSlot) {
  ScratchArena arena;
  Tensor& t = arena.acquire(0, {2, 3});
  EXPECT_EQ(t.shape(), (Shape{2, 3}));
  EXPECT_EQ(arena.num_slots(), 1u);
  EXPECT_EQ(arena.allocations(), 1u);
}

TEST(ScratchArena, ReusesCapacityOnShrinkAndRegrow) {
  ScratchArena arena;
  arena.acquire(0, {8, 8});
  const std::size_t after_first = arena.allocations();
  const std::size_t footprint = arena.footprint();

  // Shrinking and regrowing within capacity must not touch the heap.
  arena.acquire(0, {2, 2});
  arena.acquire(0, {4, 16});
  arena.acquire(0, {8, 8});
  EXPECT_EQ(arena.allocations(), after_first);
  EXPECT_EQ(arena.footprint(), footprint);

  // Growing past capacity is counted.
  arena.acquire(0, {16, 16});
  EXPECT_GT(arena.allocations(), after_first);
}

TEST(ScratchArena, SlotsAreIndependent) {
  ScratchArena arena;
  Tensor& a = arena.acquire(0, {4});
  Tensor& b = arena.acquire(3, {2, 2});
  a[0] = 1.0f;
  b[0] = 2.0f;
  EXPECT_EQ(arena.num_slots(), 4u);  // keys 0..3 exist, 1 and 2 untouched
  EXPECT_FLOAT_EQ(arena.slot(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(arena.slot(3)[0], 2.0f);
}

TEST(ScratchArena, SlotPreservesShapeAndContents) {
  ScratchArena arena;
  Tensor& t = arena.acquire(1, {3, 5});
  t.at(2, 4) = 42.0f;
  Tensor& again = arena.slot(1);
  EXPECT_EQ(&again, &t);
  EXPECT_EQ(again.shape(), (Shape{3, 5}));
  EXPECT_FLOAT_EQ(again.at(2, 4), 42.0f);
}

TEST(ScratchArena, ResetDropsEverything) {
  ScratchArena arena;
  arena.acquire(0, {16});
  arena.reset();
  EXPECT_EQ(arena.num_slots(), 0u);
  EXPECT_EQ(arena.footprint(), 0u);
}

// The property the arena buys: once a Conv2d has seen one batch of a
// given shape, further batches reuse every scratch buffer — the arena
// performs no new allocations and its footprint stays flat.
TEST(Conv2dScratch, SteadyStateIsAllocationFree) {
  nn::Conv2d conv(3, 6, 5, /*padding=*/2, /*stride=*/1);
  Rng rng(7);
  conv.init_params(rng);

  const Tensor input = Tensor::randn({4, 3, 16, 16}, rng);
  const Tensor out0 = conv.forward(input, /*train=*/true);
  Tensor g = Tensor::randn(out0.shape(), rng);
  conv.backward(g);

  const std::size_t allocations = conv.scratch_allocations();
  const std::size_t footprint = conv.scratch_footprint();
  EXPECT_GT(footprint, 0u);

  for (int batch = 0; batch < 4; ++batch) {
    conv.forward(input, true);
    conv.backward(g);
    EXPECT_EQ(conv.scratch_allocations(), allocations)
        << "batch " << batch << " touched the heap";
    EXPECT_EQ(conv.scratch_footprint(), footprint)
        << "batch " << batch << " grew a scratch buffer";
  }
}

// A smaller batch must also run allocation-free: slots shrink in place,
// reusing the high-water-mark capacity.
TEST(Conv2dScratch, SmallerBatchReusesCapacity) {
  nn::Conv2d conv(2, 4, 3, 1, 1);
  Rng rng(8);
  conv.init_params(rng);

  const Tensor big = Tensor::randn({6, 2, 12, 12}, rng);
  Tensor gb = Tensor::randn(conv.forward(big, true).shape(), rng);
  conv.backward(gb);
  const std::size_t allocations = conv.scratch_allocations();
  const std::size_t footprint = conv.scratch_footprint();

  const Tensor small = Tensor::randn({2, 2, 12, 12}, rng);
  Tensor gs = Tensor::randn(conv.forward(small, true).shape(), rng);
  conv.backward(gs);
  EXPECT_EQ(conv.scratch_allocations(), allocations);
  EXPECT_EQ(conv.scratch_footprint(), footprint);
}

// The im2col layer's training step matches the direct reference kernels
// (ops::conv2d_*) — the layer equivalent of the kernel-level equivalence
// tests.
TEST(Conv2dScratch, DirectAndIm2colLayersAgree) {
  Rng rng(9);
  nn::Conv2d conv(3, 5, 3, 1, 2);
  conv.init_params(rng);
  const Tensor& weight = conv.params()[0]->value;
  const Tensor& bias = conv.params()[1]->value;

  const Tensor input = Tensor::randn({2, 3, 9, 9}, rng);
  const Tensor out = conv.forward(input, true);
  Tensor out_ref;
  ops::conv2d_forward(input, weight, bias, conv.spec(), out_ref);
  ASSERT_EQ(out.shape(), out_ref.shape());
  for (std::size_t i = 0; i < out_ref.numel(); ++i) {
    ASSERT_NEAR(out[i], out_ref[i], 1e-4f) << "forward at " << i;
  }

  const Tensor g = Tensor::randn(out_ref.shape(), rng);
  const Tensor din = conv.backward(g);
  Tensor din_ref(input.shape());
  ops::conv2d_backward_input(g, weight, conv.spec(), din_ref);
  ASSERT_EQ(din.shape(), din_ref.shape());
  for (std::size_t i = 0; i < din_ref.numel(); ++i) {
    ASSERT_NEAR(din[i], din_ref[i], 1e-4f) << "grad_input at " << i;
  }
  Tensor dw_ref(weight.shape());
  Tensor db_ref(bias.shape());
  ops::conv2d_backward_params(input, g, conv.spec(), dw_ref, db_ref);
  const Tensor* grad_refs[] = {&dw_ref, &db_ref};
  for (std::size_t p = 0; p < 2; ++p) {
    const Tensor& got = conv.params()[p]->grad;
    const Tensor& want = *grad_refs[p];
    ASSERT_EQ(got.shape(), want.shape());
    for (std::size_t i = 0; i < want.numel(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-4f) << "param " << p << " grad at " << i;
    }
  }
}

}  // namespace
}  // namespace fedclust
