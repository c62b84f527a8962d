#include "compress/codec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "nn/serialize.hpp"
#include "tensor/kernels.hpp"
#include "utils/error.hpp"

namespace fedclust::compress {
namespace {

namespace wire = nn::wire;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Visits (offset, size) for every segment; an empty layout is one
/// segment covering [0, n).
template <typename Fn>
void for_each_segment(std::size_t n, std::span<const std::size_t> layout,
                      Fn&& fn) {
  if (layout.empty()) {
    if (n > 0) fn(std::size_t{0}, n);
    return;
  }
  std::size_t off = 0;
  for (const std::size_t seg : layout) {
    fn(off, seg);
    off += seg;
  }
  FEDCLUST_CHECK(off == n, "layout sums to " << off << ", payload has " << n
                                             << " floats");
}

bool all_finite(const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

void put_scale(std::vector<std::uint8_t>& buf, float scale) {
  wire::put_f32(buf, std::span<const float>(&scale, 1));
}

float read_scale(wire::Reader& r) {
  float scale = 0.0f;
  r.f32(std::span<float>(&scale, 1));
  return scale;
}

bool fail(std::string* why, const std::string& reason) {
  if (why != nullptr) *why = reason;
  return false;
}

// -- identity -----------------------------------------------------------------

class IdentityCodec final : public UpdateCodec {
 public:
  CodecKind kind() const override { return CodecKind::kIdentity; }
  const char* name() const override { return "identity"; }

  std::size_t encoded_bytes(std::size_t n,
                            std::span<const std::size_t>) const override {
    return n * sizeof(float);
  }

  std::vector<std::uint8_t> encode(
      std::span<const float> values, std::span<const float>,
      std::span<const std::size_t> layout) const override {
    for_each_segment(values.size(), layout, [](std::size_t, std::size_t) {});
    std::vector<std::uint8_t> frame;
    frame.reserve(values.size() * sizeof(float));
    wire::put_f32(frame, values);
    return frame;
  }

  bool validate(std::span<const std::uint8_t> frame, std::size_t n,
                std::span<const std::size_t>, std::string* why) const override {
    if (frame.size() != n * sizeof(float)) {
      return fail(why, "identity frame size mismatch");
    }
    return true;
  }

  void decode(std::span<const std::uint8_t> frame, std::span<float> out,
              std::span<const float>,
              std::span<const std::size_t>) const override {
    FEDCLUST_CHECK(frame.size() == out.size() * sizeof(float),
                   "identity frame size mismatch");
    wire::Reader r(frame);
    r.f32(out);
  }
};

// -- int8 / int4 / delta ------------------------------------------------------

/// Shared linear quantizer: per segment a float32 scale = absmax/qmax
/// followed by the quantized levels — one signed byte per value for
/// int8/delta, one biased nibble (q + 7 in [0, 14], two per byte) for
/// int4. `delta` quantizes the residual against the reference instead
/// of the value itself.
class QuantCodec final : public UpdateCodec {
 public:
  QuantCodec(CodecKind kind, int qmax, bool nibble, bool delta)
      : kind_(kind), qmax_(qmax), nibble_(nibble), delta_(delta) {}

  CodecKind kind() const override { return kind_; }
  const char* name() const override { return to_string(kind_); }

  std::size_t encoded_bytes(
      std::size_t n, std::span<const std::size_t> layout) const override {
    std::size_t total = 0;
    for_each_segment(n, layout, [&](std::size_t, std::size_t seg) {
      total += sizeof(float) + payload_bytes(seg);
    });
    return total;
  }

  std::vector<std::uint8_t> encode(
      std::span<const float> values, std::span<const float> reference,
      std::span<const std::size_t> layout) const override {
    FEDCLUST_CHECK(!delta_ || reference.empty() ||
                       reference.size() == values.size(),
                   "delta reference size mismatch");
    const auto& k = ops::kernels();
    std::vector<std::uint8_t> frame;
    frame.reserve(encoded_bytes(values.size(), layout));
    std::vector<float> resid;
    std::vector<signed char> q;
    for_each_segment(values.size(), layout, [&](std::size_t off,
                                                std::size_t seg) {
      const float* src = values.data() + off;
      if (delta_ && !reference.empty()) {
        resid.resize(seg);
        const float* ref = reference.data() + off;
        for (std::size_t i = 0; i < seg; ++i) resid[i] = src[i] - ref[i];
        src = resid.data();
      }
      q.assign(seg, 0);
      float scale = kNaN;  // non-finite segment → poisoned scale
      if (all_finite(src, seg)) {
        const float amax = k.absmax(src, seg);
        scale = amax / static_cast<float>(qmax_);
        if (scale > 0.0f) {
          k.quantize_i8(src, q.data(), 1.0f / scale, qmax_, seg);
        }
      }
      put_scale(frame, scale);
      if (nibble_) {
        for (std::size_t i = 0; i < seg; i += 2) {
          const unsigned lo = static_cast<unsigned>(q[i] + 7);
          const unsigned hi =
              i + 1 < seg ? static_cast<unsigned>(q[i + 1] + 7) : 0u;
          frame.push_back(static_cast<std::uint8_t>(lo | (hi << 4)));
        }
      } else {
        wire::put_bytes(frame, q.data(), seg);
      }
    });
    return frame;
  }

  bool validate(std::span<const std::uint8_t> frame, std::size_t n,
                std::span<const std::size_t> layout,
                std::string* why) const override {
    if (frame.size() != encoded_bytes(n, layout)) {
      return fail(why, std::string(name()) + " frame size mismatch");
    }
    wire::Reader r(frame);
    bool ok = true;
    for_each_segment(n, layout, [&](std::size_t, std::size_t seg) {
      const float scale = read_scale(r);
      std::vector<std::uint8_t> skip(payload_bytes(seg));
      r.raw(skip.data(), skip.size());
      if (!std::isfinite(scale) || scale < 0.0f) ok = false;
    });
    if (!ok) return fail(why, std::string(name()) + " scale not finite");
    return true;
  }

  void decode(std::span<const std::uint8_t> frame, std::span<float> out,
              std::span<const float> reference,
              std::span<const std::size_t> layout) const override {
    FEDCLUST_CHECK(frame.size() == encoded_bytes(out.size(), layout),
                   name() << " frame size mismatch");
    FEDCLUST_CHECK(!delta_ || reference.empty() ||
                       reference.size() == out.size(),
                   "delta reference size mismatch");
    const auto& k = ops::kernels();
    wire::Reader r(frame);
    std::vector<signed char> q;
    std::vector<std::uint8_t> packed;
    for_each_segment(out.size(), layout, [&](std::size_t off,
                                             std::size_t seg) {
      const float scale = read_scale(r);  // NaN scale → NaN floats below
      q.resize(seg);
      if (nibble_) {
        packed.resize(payload_bytes(seg));
        r.raw(packed.data(), packed.size());
        for (std::size_t i = 0; i < seg; ++i) {
          const unsigned u = (packed[i / 2] >> ((i % 2) * 4)) & 0xF;
          q[i] = static_cast<signed char>(static_cast<int>(u) - 7);
        }
      } else {
        r.raw(q.data(), seg);
      }
      float* dst = out.data() + off;
      k.dequantize_i8(q.data(), dst, scale, seg);
      if (delta_ && !reference.empty()) {
        const float* ref = reference.data() + off;
        for (std::size_t i = 0; i < seg; ++i) dst[i] += ref[i];
      }
    });
  }

 private:
  std::size_t payload_bytes(std::size_t seg) const {
    return nibble_ ? (seg + 1) / 2 : seg;
  }

  CodecKind kind_;
  int qmax_;
  bool nibble_;
  bool delta_;
};

// -- top-k --------------------------------------------------------------------

class TopKCodec final : public UpdateCodec {
 public:
  explicit TopKCodec(double frac) : frac_(frac) {}

  CodecKind kind() const override { return CodecKind::kTopK; }
  const char* name() const override { return "topk"; }

  std::size_t encoded_bytes(std::size_t n,
                            std::span<const std::size_t>) const override {
    return sizeof(std::uint64_t) + num_kept(n) * kPairBytes;
  }

  std::vector<std::uint8_t> encode(
      std::span<const float> values, std::span<const float> reference,
      std::span<const std::size_t> layout) const override {
    const std::size_t n = values.size();
    for_each_segment(n, layout, [](std::size_t, std::size_t) {});
    FEDCLUST_CHECK(reference.empty() || reference.size() == n,
                   "topk reference size mismatch");
    const std::size_t kept = num_kept(n);
    // Magnitude of the change each coordinate carries; NaN sorts as +inf
    // so poisoned coordinates are always selected (and then rejected by
    // validate's finite-value check instead of silently dropped).
    std::vector<float> mag(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float d = reference.empty() ? values[i] : values[i] - reference[i];
      const float a = std::fabs(d);
      mag[i] = std::isnan(a) ? std::numeric_limits<float>::infinity() : a;
    }
    std::vector<std::uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    const auto larger = [&](std::uint32_t a, std::uint32_t b) {
      if (mag[a] != mag[b]) return mag[a] > mag[b];
      return a < b;  // ties → lower index, a total order
    };
    if (kept < n) {
      std::nth_element(idx.begin(), idx.begin() + kept, idx.end(), larger);
      idx.resize(kept);
    }
    std::sort(idx.begin(), idx.end());  // frame stores ascending indices
    std::vector<std::uint8_t> frame;
    frame.reserve(encoded_bytes(n, layout));
    wire::put_u64(frame, kept);
    for (const std::uint32_t i : idx) {
      wire::put_u32(frame, i);
      wire::put_f32(frame, std::span<const float>(&values[i], 1));
    }
    return frame;
  }

  bool validate(std::span<const std::uint8_t> frame, std::size_t n,
                std::span<const std::size_t> layout,
                std::string* why) const override {
    if (frame.size() != encoded_bytes(n, layout)) {
      return fail(why, "topk frame size mismatch");
    }
    wire::Reader r(frame);
    const std::uint64_t kept = r.u64();
    if (kept != num_kept(n)) return fail(why, "topk count mismatch");
    std::uint64_t prev = 0;
    for (std::uint64_t u = 0; u < kept; ++u) {
      const std::uint32_t i = r.u32();
      const float v = read_scale(r);
      if (i >= n) return fail(why, "topk index out of range");
      if (u > 0 && i <= prev) return fail(why, "topk indices not ascending");
      if (!std::isfinite(v)) return fail(why, "topk value not finite");
      prev = i;
    }
    return true;
  }

  void decode(std::span<const std::uint8_t> frame, std::span<float> out,
              std::span<const float> reference,
              std::span<const std::size_t> layout) const override {
    const std::size_t n = out.size();
    FEDCLUST_CHECK(frame.size() == encoded_bytes(n, layout),
                   "topk frame size mismatch");
    FEDCLUST_CHECK(reference.empty() || reference.size() == n,
                   "topk reference size mismatch");
    if (reference.empty()) {
      std::fill(out.begin(), out.end(), 0.0f);
    } else {
      std::copy(reference.begin(), reference.end(), out.begin());
    }
    wire::Reader r(frame);
    const std::uint64_t kept = r.u64();
    FEDCLUST_CHECK(kept == num_kept(n), "topk count mismatch");
    std::uint64_t prev = 0;
    for (std::uint64_t u = 0; u < kept; ++u) {
      const std::uint32_t i = r.u32();
      FEDCLUST_CHECK(i < n, "topk index out of range");
      FEDCLUST_CHECK(u == 0 || i > prev, "topk indices not ascending");
      r.f32(std::span<float>(&out[i], 1));
      prev = i;
    }
  }

 private:
  static constexpr std::size_t kPairBytes =
      sizeof(std::uint32_t) + sizeof(float);

  std::size_t num_kept(std::size_t n) const {
    if (n == 0) return 0;
    const auto want = static_cast<long long>(std::llround(
        frac_ * static_cast<double>(n)));
    const auto k = static_cast<std::size_t>(std::max(want, 1ll));
    return std::min(k, n);
  }

  double frac_;
};

// -- sign-SGD -----------------------------------------------------------------

class SignCodec final : public UpdateCodec {
 public:
  CodecKind kind() const override { return CodecKind::kSignSgd; }
  const char* name() const override { return "sign"; }

  std::size_t encoded_bytes(
      std::size_t n, std::span<const std::size_t> layout) const override {
    std::size_t total = 0;
    for_each_segment(n, layout, [&](std::size_t, std::size_t seg) {
      total += sizeof(float) + (seg + 7) / 8;
    });
    return total;
  }

  std::vector<std::uint8_t> encode(
      std::span<const float> values, std::span<const float> reference,
      std::span<const std::size_t> layout) const override {
    FEDCLUST_CHECK(reference.empty() || reference.size() == values.size(),
                   "sign reference size mismatch");
    std::vector<std::uint8_t> frame;
    frame.reserve(encoded_bytes(values.size(), layout));
    std::vector<float> resid;
    for_each_segment(values.size(), layout, [&](std::size_t off,
                                                std::size_t seg) {
      resid.resize(seg);
      for (std::size_t i = 0; i < seg; ++i) {
        const float ref = reference.empty() ? 0.0f : reference[off + i];
        resid[i] = values[off + i] - ref;
      }
      float scale = kNaN;
      std::vector<std::uint8_t> bits((seg + 7) / 8, 0u);
      if (all_finite(resid.data(), seg)) {
        double acc = 0.0;  // fixed ascending order, double accumulation
        for (std::size_t i = 0; i < seg; ++i) {
          acc += std::fabs(static_cast<double>(resid[i]));
        }
        scale = seg > 0 ? static_cast<float>(acc / static_cast<double>(seg))
                        : 0.0f;
        for (std::size_t i = 0; i < seg; ++i) {
          if (resid[i] >= 0.0f) bits[i / 8] |= (1u << (i % 8));
        }
      }
      put_scale(frame, scale);
      wire::put_bytes(frame, bits.data(), bits.size());
    });
    return frame;
  }

  bool validate(std::span<const std::uint8_t> frame, std::size_t n,
                std::span<const std::size_t> layout,
                std::string* why) const override {
    if (frame.size() != encoded_bytes(n, layout)) {
      return fail(why, "sign frame size mismatch");
    }
    wire::Reader r(frame);
    bool ok = true;
    for_each_segment(n, layout, [&](std::size_t, std::size_t seg) {
      const float scale = read_scale(r);
      std::vector<std::uint8_t> skip((seg + 7) / 8);
      r.raw(skip.data(), skip.size());
      if (!std::isfinite(scale) || scale < 0.0f) ok = false;
    });
    if (!ok) return fail(why, "sign scale not finite");
    return true;
  }

  void decode(std::span<const std::uint8_t> frame, std::span<float> out,
              std::span<const float> reference,
              std::span<const std::size_t> layout) const override {
    FEDCLUST_CHECK(frame.size() == encoded_bytes(out.size(), layout),
                   "sign frame size mismatch");
    FEDCLUST_CHECK(reference.empty() || reference.size() == out.size(),
                   "sign reference size mismatch");
    wire::Reader r(frame);
    std::vector<std::uint8_t> bits;
    for_each_segment(out.size(), layout, [&](std::size_t off,
                                             std::size_t seg) {
      const float scale = read_scale(r);  // NaN propagates into every value
      bits.resize((seg + 7) / 8);
      r.raw(bits.data(), bits.size());
      for (std::size_t i = 0; i < seg; ++i) {
        const float ref = reference.empty() ? 0.0f : reference[off + i];
        const bool up = (bits[i / 8] >> (i % 8)) & 1u;
        out[off + i] = up ? ref + scale : ref - scale;
      }
    });
  }
};

}  // namespace

std::unique_ptr<UpdateCodec> make_codec(CodecKind kind, double topk_frac) {
  switch (kind) {
    case CodecKind::kIdentity:
      return std::make_unique<IdentityCodec>();
    case CodecKind::kInt8:
      return std::make_unique<QuantCodec>(CodecKind::kInt8, 127, false, false);
    case CodecKind::kInt4:
      return std::make_unique<QuantCodec>(CodecKind::kInt4, 7, true, false);
    case CodecKind::kTopK:
      return std::make_unique<TopKCodec>(topk_frac);
    case CodecKind::kSignSgd:
      return std::make_unique<SignCodec>();
    case CodecKind::kDelta:
      return std::make_unique<QuantCodec>(CodecKind::kDelta, 127, false, true);
  }
  FEDCLUST_FAIL("unknown codec kind " << static_cast<unsigned>(kind));
}

const char* to_string(CodecKind kind) {
  switch (kind) {
    case CodecKind::kIdentity:
      return "identity";
    case CodecKind::kInt8:
      return "int8";
    case CodecKind::kInt4:
      return "int4";
    case CodecKind::kTopK:
      return "topk";
    case CodecKind::kSignSgd:
      return "sign";
    case CodecKind::kDelta:
      return "delta";
  }
  return "unknown";
}

bool codec_from_string(std::string_view name, CodecKind* out) {
  for (const CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kInt8, CodecKind::kInt4,
        CodecKind::kTopK, CodecKind::kSignSgd, CodecKind::kDelta}) {
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool valid_codec_id(std::uint16_t value) {
  return value <= static_cast<std::uint16_t>(CodecKind::kDelta);
}

void roundtrip(const UpdateCodec& codec, std::span<const float> values,
               std::span<const float> reference,
               std::span<const std::size_t> layout, std::span<float> out) {
  FEDCLUST_CHECK(out.size() == values.size(), "roundtrip size mismatch");
  const std::vector<std::uint8_t> frame =
      codec.encode(values, reference, layout);
  codec.decode(frame, out, reference, layout);
}

void signsgd_majority_vote(const float* const* updates, const double* coeff,
                           std::size_t num, const float* reference, float* out,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ref = static_cast<double>(reference[i]);
    double vote = 0.0;
    double mag = 0.0;
    for (std::size_t u = 0; u < num; ++u) {
      const double d = static_cast<double>(updates[u][i]) - ref;
      if (d > 0.0) {
        vote += coeff[u];
      } else if (d < 0.0) {
        vote -= coeff[u];
      }
      mag += coeff[u] * std::fabs(d);
    }
    const double dir = vote > 0.0 ? 1.0 : (vote < 0.0 ? -1.0 : 0.0);
    out[i] = static_cast<float>(ref + dir * mag);
  }
}

}  // namespace fedclust::compress
