// Property tests for the update-compression codecs: quantization error
// bounds, top-k frame structure and exactness, sign majority-vote
// determinism, delta/reference semantics, envelope rejection of
// non-finite payloads, and scalar-vs-SIMD kernel equivalence. The
// federation-level tests pin the identity codec's trajectories to the
// compression-off engine bit-for-bit and run an audited network round
// over compressed frames.
#include "compress/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "algorithms/fedavg.hpp"
#include "algorithms/ifca.hpp"
#include "fl/federation.hpp"
#include "nn/serialize.hpp"
#include "tensor/kernels.hpp"
#include "test_helpers.hpp"
#include "utils/rng.hpp"

namespace fedclust::compress {
namespace {

using testing::make_grouped_federation;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// A reproducible mixed-magnitude payload: mostly small normals with a
/// few large outliers so quantization scales are exercised per segment.
std::vector<float> payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(rng.normal(0.0, 0.1));
    if (rng.uniform() < 0.05) x[i] *= 40.0f;
  }
  return x;
}

float segment_absmax(std::span<const float> x) {
  float m = 0.0f;
  for (const float v : x) m = std::max(m, std::fabs(v));
  return m;
}

const std::vector<std::size_t> kLayout = {48, 1, 17, 30};  // sums to 96

// -- int8 / int4 round-trip bounds -------------------------------------------

TEST(Int8Codec, RoundTripWithinHalfStep) {
  const auto codec = make_codec(CodecKind::kInt8);
  const std::vector<float> x = payload(96, 11);
  std::vector<float> dec(x.size());
  roundtrip(*codec, x, {}, kLayout, dec);

  std::size_t off = 0;
  for (const std::size_t seg : kLayout) {
    const float scale =
        segment_absmax(std::span<const float>(x).subspan(off, seg)) / 127.0f;
    for (std::size_t i = off; i < off + seg; ++i) {
      EXPECT_LE(std::fabs(x[i] - dec[i]), scale * 0.5f * 1.001f + 1e-7f)
          << "coordinate " << i;
    }
    off += seg;
  }
}

TEST(Int4Codec, RoundTripWithinHalfStep) {
  const auto codec = make_codec(CodecKind::kInt4);
  const std::vector<float> x = payload(96, 12);
  std::vector<float> dec(x.size());
  roundtrip(*codec, x, {}, kLayout, dec);

  std::size_t off = 0;
  for (const std::size_t seg : kLayout) {
    const float amax =
        segment_absmax(std::span<const float>(x).subspan(off, seg));
    for (std::size_t i = off; i < off + seg; ++i) {
      // scale = absmax/7, half-step = absmax/14.
      EXPECT_LE(std::fabs(x[i] - dec[i]), amax / 14.0f * 1.001f + 1e-7f)
          << "coordinate " << i;
    }
    off += seg;
  }
}

TEST(QuantCodecs, EncodedBytesMatchEncodeForAllKinds) {
  const std::vector<float> x = payload(96, 13);
  for (const CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kInt8, CodecKind::kInt4,
        CodecKind::kTopK, CodecKind::kSignSgd, CodecKind::kDelta}) {
    const auto codec = make_codec(kind, 0.25);
    const auto frame = codec->encode(x, {}, kLayout);
    EXPECT_EQ(frame.size(), codec->encoded_bytes(x.size(), kLayout))
        << to_string(kind);
    EXPECT_TRUE(codec->validate(frame, x.size(), kLayout, nullptr))
        << to_string(kind);
  }
}

// -- top-k --------------------------------------------------------------------

TEST(TopKCodec, FrameStoresAscendingLargestMagnitudes) {
  const auto codec = make_codec(CodecKind::kTopK, /*topk_frac=*/0.25);
  const std::vector<float> x = payload(96, 14);
  const auto frame = codec->encode(x, {}, kLayout);

  nn::wire::Reader r(frame);
  const std::uint64_t kept = r.u64();
  EXPECT_EQ(kept, 24u);  // round(0.25 * 96)

  // Smallest selected magnitude must dominate every unselected one.
  std::vector<bool> selected(x.size(), false);
  float min_kept = std::numeric_limits<float>::infinity();
  std::uint32_t prev = 0;
  for (std::uint64_t u = 0; u < kept; ++u) {
    const std::uint32_t i = r.u32();
    float v = 0.0f;
    r.f32(std::span<float>(&v, 1));
    if (u > 0) {
      EXPECT_GT(i, prev) << "indices must be strictly ascending";
    }
    prev = i;
    selected[i] = true;
    EXPECT_EQ(v, x[i]) << "frame carries the raw value";
    min_kept = std::min(min_kept, std::fabs(v));
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!selected[i]) {
      EXPECT_LE(std::fabs(x[i]), min_kept);
    }
  }

  // Unselected coordinates decode to the reference (zero here).
  std::vector<float> dec(x.size());
  codec->decode(frame, dec, {}, kLayout);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (selected[i]) {
      EXPECT_EQ(dec[i], x[i]);
    } else {
      EXPECT_EQ(dec[i], 0.0f);
    }
  }
}

TEST(TopKCodec, KeepAllIsBitExact) {
  const auto codec = make_codec(CodecKind::kTopK, /*topk_frac=*/1.0);
  const std::vector<float> x = payload(33, 15);
  std::vector<float> dec(x.size());
  roundtrip(*codec, x, {}, {}, dec);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::memcmp(&dec[i], &x[i], sizeof(float)), 0) << i;
  }
}

TEST(TopKCodec, ReferenceShiftsBothSelectionAndFill) {
  // With a reference equal to the values, every delta is 0; the codec
  // still keeps k coordinates (ties -> lowest indices) and decode
  // restores the reference everywhere.
  const auto codec = make_codec(CodecKind::kTopK, 0.1);
  const std::vector<float> x = payload(50, 16);
  std::vector<float> dec(x.size());
  const auto frame = codec->encode(x, x, {});
  codec->decode(frame, dec, x, {});
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(dec[i], x[i]);
}

// -- sign-SGD -----------------------------------------------------------------

TEST(SignCodec, DecodesToReferencePlusMinusMeanMagnitude) {
  const auto codec = make_codec(CodecKind::kSignSgd);
  const std::vector<float> ref = payload(64, 17);
  std::vector<float> x = ref;
  Rng rng(18);
  for (float& v : x) v += static_cast<float>(rng.normal(0.0, 0.05));

  std::vector<float> dec(x.size());
  roundtrip(*codec, x, ref, {}, dec);

  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += std::fabs(static_cast<double>(x[i] - ref[i]));
  }
  const float scale = static_cast<float>(acc / static_cast<double>(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float expected =
        x[i] - ref[i] >= 0.0f ? ref[i] + scale : ref[i] - scale;
    EXPECT_EQ(dec[i], expected) << i;
  }
}

TEST(SignMajorityVote, HandBuiltThreeClientCase) {
  // ref = 0 everywhere; exact binary values so votes/magnitudes are
  // reproducible in double without rounding.
  const std::vector<float> ref = {0.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<float> u0 = {1.0f, -1.0f, 0.5f, 2.0f};
  const std::vector<float> u1 = {1.0f, 1.0f, -0.5f, -2.0f};
  const std::vector<float> u2 = {1.0f, -1.0f, -0.5f, 0.0f};
  const float* ups[] = {u0.data(), u1.data(), u2.data()};
  const double coeff[] = {0.5, 0.25, 0.25};

  std::vector<float> out(4);
  signsgd_majority_vote(ups, coeff, 3, ref.data(), out.data(), 4);

  // coord 0: all +, mag = 1 → +1.
  EXPECT_EQ(out[0], 1.0f);
  // coord 1: votes 0.5·(−1) + 0.25·(+1) + 0.25·(−1) = −0.5; mag = 1 → −1.
  EXPECT_EQ(out[1], -1.0f);
  // coord 2: votes 0.5 − 0.25 − 0.25 = 0 → tie → reference.
  EXPECT_EQ(out[2], 0.0f);
  // coord 3: votes 0.5 − 0.25 + 0 (zero delta votes nothing) = +0.25;
  // mag = 0.5·2 + 0.25·2 = 1.5.
  EXPECT_EQ(out[3], 1.5f);
}

TEST(SignMajorityVote, DeterministicAcrossCalls) {
  const std::size_t n = 200;
  const std::vector<float> ref = payload(n, 19);
  std::vector<std::vector<float>> ups(5);
  std::vector<const float*> ptrs;
  std::vector<double> coeff = {0.3, 0.25, 0.2, 0.15, 0.1};
  for (std::size_t u = 0; u < ups.size(); ++u) {
    ups[u] = payload(n, 20 + u);
    ptrs.push_back(ups[u].data());
  }
  std::vector<float> a(n), b(n);
  signsgd_majority_vote(ptrs.data(), coeff.data(), ptrs.size(), ref.data(),
                        a.data(), n);
  signsgd_majority_vote(ptrs.data(), coeff.data(), ptrs.size(), ref.data(),
                        b.data(), n);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0);
}

// -- delta --------------------------------------------------------------------

TEST(DeltaCodec, QuantizesResidualAgainstReference) {
  const auto codec = make_codec(CodecKind::kDelta);
  const std::vector<float> ref = payload(96, 22);
  std::vector<float> x = ref;
  Rng rng(23);
  for (float& v : x) v += static_cast<float>(rng.normal(0.0, 0.01));

  std::vector<float> dec(x.size());
  roundtrip(*codec, x, ref, kLayout, dec);

  std::size_t off = 0;
  for (const std::size_t seg : kLayout) {
    std::vector<float> resid(seg);
    for (std::size_t i = 0; i < seg; ++i) resid[i] = x[off + i] - ref[off + i];
    const float scale = segment_absmax(resid) / 127.0f;
    for (std::size_t i = off; i < off + seg; ++i) {
      EXPECT_LE(std::fabs(x[i] - dec[i]), scale * 0.5f * 1.001f + 1e-7f) << i;
    }
    off += seg;
  }
}

TEST(DeltaCodec, StaleReferenceShiftsDecodeByReferenceGap) {
  // A frame decoded against a different reference lands at
  // stale + quantized(values − encode_ref): exactly the matching-ref
  // reconstruction displaced by the reference gap.
  const auto codec = make_codec(CodecKind::kDelta);
  const std::vector<float> ref = payload(40, 24);
  std::vector<float> stale = ref;
  for (float& v : stale) v += 0.25f;
  std::vector<float> x = ref;
  Rng rng(25);
  for (float& v : x) v += static_cast<float>(rng.normal(0.0, 0.02));

  const auto frame = codec->encode(x, ref, {});
  std::vector<float> with_ref(x.size()), with_stale(x.size());
  codec->decode(frame, with_ref, ref, {});
  codec->decode(frame, with_stale, stale, {});
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(with_stale[i] - with_ref[i], stale[i] - ref[i], 1e-6f) << i;
  }
}

// -- edge cases and envelope rejection ---------------------------------------

TEST(AllCodecs, EmptyAndOneElementPayloads) {
  for (const CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kInt8, CodecKind::kInt4,
        CodecKind::kTopK, CodecKind::kSignSgd, CodecKind::kDelta}) {
    const auto codec = make_codec(kind, 0.5);

    const auto empty = codec->encode({}, {}, {});
    EXPECT_EQ(empty.size(), codec->encoded_bytes(0, {})) << to_string(kind);
    EXPECT_TRUE(codec->validate(empty, 0, {}, nullptr)) << to_string(kind);
    codec->decode(empty, std::span<float>{}, {}, {});  // must not throw

    const std::vector<float> one = {-2.5f};
    std::vector<float> dec(1, 0.0f);
    roundtrip(*codec, one, {}, {}, dec);
    if (kind == CodecKind::kSignSgd) {
      // scale = |−2.5|, sign −: decodes to −2.5 exactly here.
      EXPECT_EQ(dec[0], -2.5f);
    } else {
      EXPECT_NEAR(dec[0], -2.5f, 2.5f / 14.0f + 1e-6f) << to_string(kind);
    }
  }
}

TEST(LossyCodecs, RejectNonFinitePayloads) {
  std::vector<float> x = payload(32, 26);
  x[7] = kNaN;
  for (const CodecKind kind : {CodecKind::kInt8, CodecKind::kInt4,
                               CodecKind::kTopK, CodecKind::kSignSgd,
                               CodecKind::kDelta}) {
    const auto codec = make_codec(kind, 0.5);
    const auto frame = codec->encode(x, {}, {});
    std::string why;
    EXPECT_FALSE(codec->validate(frame, x.size(), {}, &why))
        << to_string(kind);
    EXPECT_FALSE(why.empty()) << to_string(kind);
  }
  // Identity passes the envelope check (content screening is the robust
  // layer's second stage), and an infinite value round-trips bit-exactly.
  const auto identity = make_codec(CodecKind::kIdentity);
  EXPECT_TRUE(
      identity->validate(identity->encode(x, {}, {}), x.size(), {}, nullptr));
}

TEST(AllCodecs, TruncatedFramesFailValidationAndThrowOnDecode) {
  const std::vector<float> x = payload(32, 27);
  for (const CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kInt8, CodecKind::kInt4,
        CodecKind::kTopK, CodecKind::kSignSgd, CodecKind::kDelta}) {
    const auto codec = make_codec(kind, 0.5);
    auto frame = codec->encode(x, {}, {});
    frame.pop_back();
    EXPECT_FALSE(codec->validate(frame, x.size(), {}, nullptr))
        << to_string(kind);
    std::vector<float> dec(x.size());
    EXPECT_THROW(codec->decode(frame, dec, {}, {}), Error) << to_string(kind);
  }
}

TEST(AllCodecs, LayoutMismatchThrows) {
  const auto codec = make_codec(CodecKind::kInt8);
  const std::vector<float> x = payload(10, 28);
  const std::vector<std::size_t> bad = {4, 4};  // sums to 8, not 10
  EXPECT_THROW(codec->encode(x, {}, bad), Error);
}

TEST(IdentityCodec, BitExactRoundTrip) {
  const auto codec = make_codec(CodecKind::kIdentity);
  const std::vector<float> x = payload(77, 29);
  std::vector<float> dec(x.size());
  roundtrip(*codec, x, {}, {}, dec);
  EXPECT_EQ(std::memcmp(dec.data(), x.data(), x.size() * sizeof(float)), 0);
}

TEST(CodecRegistry, NamesAndWireIdsRoundTrip) {
  for (const CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kInt8, CodecKind::kInt4,
        CodecKind::kTopK, CodecKind::kSignSgd, CodecKind::kDelta}) {
    CodecKind parsed;
    ASSERT_TRUE(codec_from_string(to_string(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_TRUE(valid_codec_id(static_cast<std::uint16_t>(kind)));
    EXPECT_EQ(make_codec(kind)->kind(), kind);
  }
  CodecKind parsed;
  EXPECT_FALSE(codec_from_string("gzip", &parsed));
  EXPECT_FALSE(valid_codec_id(6));
}

// -- scalar vs SIMD kernel equivalence ---------------------------------------

TEST(QuantizeKernels, ScalarAndSimdTablesBitIdentical) {
  if (!ops::simd_active()) {
    GTEST_SKIP() << "no SIMD table active on this host";
  }
  const std::size_t n = 1000;  // odd-sized tail exercised via subspans
  const std::vector<float> x = payload(n, 30);

  for (const std::size_t len : {n, std::size_t{1}, std::size_t{37}}) {
    const float amax_simd = ops::kernels().absmax(x.data(), len);
    std::vector<signed char> q_simd(len);
    std::vector<float> d_simd(len);
    const float inv = amax_simd > 0.0f ? 127.0f / amax_simd : 0.0f;
    ops::kernels().quantize_i8(x.data(), q_simd.data(), inv, 127, len);
    ops::kernels().dequantize_i8(q_simd.data(), d_simd.data(),
                                 amax_simd / 127.0f, len);

    ops::set_simd_enabled(false);
    const float amax_scalar = ops::kernels().absmax(x.data(), len);
    std::vector<signed char> q_scalar(len);
    std::vector<float> d_scalar(len);
    ops::kernels().quantize_i8(x.data(), q_scalar.data(), inv, 127, len);
    ops::kernels().dequantize_i8(q_scalar.data(), d_scalar.data(),
                                 amax_simd / 127.0f, len);
    ops::set_simd_enabled(true);

    EXPECT_EQ(std::memcmp(&amax_simd, &amax_scalar, sizeof(float)), 0)
        << "absmax, len=" << len;
    EXPECT_EQ(std::memcmp(q_simd.data(), q_scalar.data(), len), 0)
        << "quantize_i8, len=" << len;
    EXPECT_EQ(std::memcmp(d_simd.data(), d_scalar.data(), len * sizeof(float)),
              0)
        << "dequantize_i8, len=" << len;
  }
}

TEST(QuantizeKernels, NaNQuantizesToNegativeClamp) {
  // The documented branch order sends NaN to the low clamp in BOTH
  // tables — the poisoned-segment path never calls the kernel, but the
  // contract must hold regardless.
  const float x[3] = {kNaN, 1.0f, -1.0f};
  signed char q[3] = {99, 99, 99};
  ops::kernels().quantize_i8(x, q, 1.0f, 127, 3);
  EXPECT_EQ(q[0], -127);
  EXPECT_EQ(q[1], 1);
  EXPECT_EQ(q[2], -1);
}

// -- federation integration ---------------------------------------------------

fl::FederationConfig parity_config() {
  fl::FederationConfig cfg;
  cfg.eval_every = 1;
  cfg.local.epochs = 1;
  cfg.local.sgd.lr = 0.05;
  return cfg;
}

TEST(CodecParity, EnabledIdentityMatchesDisabledBitForBit) {
  fl::FederationConfig off = parity_config();
  fl::FederationConfig on = parity_config();
  on.compression.enabled = true;  // identity up + down: real transport

  auto fed_off = make_grouped_federation(6, 480, 42, off);
  auto fed_on = make_grouped_federation(6, 480, 42, on);
  algorithms::FedAvg avg;
  const fl::RunResult r_off = avg.run(fed_off.federation, 3);
  const fl::RunResult r_on = avg.run(fed_on.federation, 3);

  ASSERT_EQ(r_off.rounds.size(), r_on.rounds.size());
  for (std::size_t i = 0; i < r_off.rounds.size(); ++i) {
    EXPECT_EQ(r_off.rounds[i].weights_fp, r_on.rounds[i].weights_fp)
        << "round " << i;
  }
  // Identity encodes floats verbatim, so the meter totals match too.
  EXPECT_EQ(fed_off.federation.comm().total_upload(),
            fed_on.federation.comm().total_upload());
  EXPECT_EQ(fed_off.federation.comm().total_download(),
            fed_on.federation.comm().total_download());
}

TEST(CodecParity, IdentityParityHoldsForMultiModelIfca) {
  fl::FederationConfig off = parity_config();
  fl::FederationConfig on = parity_config();
  on.compression.enabled = true;

  auto fed_off = make_grouped_federation(6, 480, 43, off);
  auto fed_on = make_grouped_federation(6, 480, 43, on);
  algorithms::Ifca ifca(
      algorithms::IfcaConfig{.num_clusters = 2, .init_perturbation = 0.1});
  const fl::RunResult r_off = ifca.run(fed_off.federation, 3);
  const fl::RunResult r_on = ifca.run(fed_on.federation, 3);

  ASSERT_EQ(r_off.rounds.size(), r_on.rounds.size());
  for (std::size_t i = 0; i < r_off.rounds.size(); ++i) {
    EXPECT_EQ(r_off.rounds[i].weights_fp, r_on.rounds[i].weights_fp)
        << "round " << i;
  }
}

TEST(CodecTransport, Int8ShrinksUploadsAndTrains) {
  fl::FederationConfig raw_cfg = parity_config();
  fl::FederationConfig cfg = parity_config();
  cfg.compression.enabled = true;
  cfg.compression.upload = CodecKind::kInt8;

  auto fed_raw = make_grouped_federation(6, 480, 44, raw_cfg);
  auto fed = make_grouped_federation(6, 480, 44, cfg);
  algorithms::FedAvg avg;
  const fl::RunResult r_raw = avg.run(fed_raw.federation, 3);
  const fl::RunResult r = avg.run(fed.federation, 3);

  // int8 uploads carry ~1 byte/coordinate plus per-tensor scales.
  EXPECT_LT(fed.federation.comm().total_upload(),
            fed_raw.federation.comm().total_upload() / 3);
  EXPECT_EQ(fed.federation.comm().total_download(),
            fed_raw.federation.comm().total_download());
  // Lossy but gentle: training still makes progress.
  EXPECT_GT(r.final_accuracy.mean, 0.3);
  (void)r_raw;
}

TEST(CodecTransport, AuditedNetworkRunKeepsMeterLogParity) {
  fl::FederationConfig cfg = parity_config();
  cfg.audit = true;
  cfg.network.enabled = true;
  cfg.compression.enabled = true;
  cfg.compression.upload = CodecKind::kInt8;
  cfg.compression.download = CodecKind::kInt8;

  auto fed = make_grouped_federation(6, 480, 45, cfg);
  algorithms::FedAvg avg;
  // make_round_metrics re-audits CommMeter vs the event log every round;
  // a metering/framing mismatch on the codec path throws here.
  const fl::RunResult r = avg.run(fed.federation, 3);
  EXPECT_EQ(r.rounds.size(), 3u);
  EXPECT_GT(fed.federation.comm().total_upload(), 0u);
}

}  // namespace
}  // namespace fedclust::compress
