// Procedural class-conditional image generators standing in for the
// paper's CIFAR-10 / Fashion-MNIST / SVHN datasets.
//
// The evaluation environment has no network access and ships no datasets,
// so (per DESIGN.md §3) we synthesize datasets with the same geometry and
// a *difficulty ordering* matched to the paper's reported accuracies
// (FMNIST easiest, SVHN middle, CIFAR-10 hardest).
//
// Generator model, per dataset:
//  * every class c gets `modes` fixed prototype images P_{c,m}: smooth
//    random fields (sums of random 2-D cosine waves), all correlated
//    through a shared component (correlation rho). Multiple modes make a
//    class a UNION of appearances — like real image classes — so 10-way
//    discrimination is capacity-bound for a small CNN while a 2-4-way
//    (per-cluster) problem stays easy. That is exactly the regime the
//    paper's Dir(0.1) experiments live in;
//  * a sample of class c picks a mode uniformly and is
//        x = P_{c,m}  (circularly shifted by up to `max_shift` pixels)
//          + d · D  (a fresh smooth distractor field per sample)
//          + g · N  (white Gaussian pixel noise)
//    clipped to [-3, 3].
//
// Everything is deterministic given (kind, seed): prototypes derive from
// the seed, and sampling draws from a caller-provided or split Rng. The
// non-IID structure of the experiments comes from the partitioner
// (src/partition), not from the generator.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace fedclust::data {

/// Which real dataset the synthetic one emulates.
enum class SyntheticKind { kCifar10, kFmnist, kSvhn };

/// Lowercase name used in tables and CSV output ("cifar10", ...).
std::string to_string(SyntheticKind kind);
/// Parses the names produced by to_string; throws on unknown names.
SyntheticKind synthetic_kind_from_string(const std::string& name);

/// Difficulty and geometry knobs; defaults are produced by
/// `SyntheticSpec::for_kind`.
struct SyntheticSpec {
  ImageSpec image;
  double class_correlation = 0.0;  ///< rho: shared component across classes
  std::size_t max_shift = 2;       ///< max circular shift in pixels
  double distractor = 0.3;         ///< amplitude of per-sample smooth field
  double noise = 0.2;              ///< white-noise amplitude
  std::size_t waves = 6;           ///< cosine components per prototype
  std::size_t modes = 1;           ///< appearance modes per class

  static SyntheticSpec for_kind(SyntheticKind kind);
};

/// Deterministic generator with fixed per-class prototypes.
class SyntheticGenerator {
 public:
  SyntheticGenerator(SyntheticKind kind, std::uint64_t seed);
  SyntheticGenerator(SyntheticSpec spec, std::uint64_t seed);

  const SyntheticSpec& spec() const { return spec_; }
  const ImageSpec& image_spec() const { return spec_.image; }

  /// Draws one sample of class `label` using `rng`.
  Tensor sample(std::int32_t label, Rng& rng) const;

  /// Generates `n` samples with uniform labels into a Dataset.
  Dataset generate(std::size_t n, Rng& rng) const;

  /// Generates samples with the given per-class counts.
  Dataset generate_per_class(const std::vector<std::size_t>& counts,
                             Rng& rng) const;

  /// The fixed prototype of class c, mode m (for tests/analysis).
  const Tensor& prototype(std::size_t c, std::size_t m = 0) const;

 private:
  SyntheticSpec spec_;
  /// prototypes_[c * modes + m], each a (C,H,W) tensor.
  std::vector<Tensor> prototypes_;

  void build_prototypes(std::uint64_t seed);
};

/// Convenience: the full synthetic train+test pool for one emulated
/// dataset ((train, test), sizes chosen by the caller).
std::pair<Dataset, Dataset> make_synthetic_pool(SyntheticKind kind,
                                                std::size_t train_samples,
                                                std::size_t test_samples,
                                                std::uint64_t seed);

namespace detail {

/// Half-width of the rounding test in fill_smooth_field. Every wave
/// argument stays below 64, so the separable value lies within 2^-42 of
/// wave_reference; 2^-36 leaves a 64× margin.
inline constexpr double kWaveErr = 0x1p-36;

/// One wave at one pixel, amp·cos(2π(fu·x/w + fv·y/h) + phase), with the
/// generator's original per-pixel expression. The float cast of this
/// value is the contract; fill_smooth_field falls back to it whenever the
/// separable value cannot prove the same rounding.
double wave_reference(double fu, double fv, double phase, double amp,
                      std::size_t x, std::size_t y, std::size_t w,
                      std::size_t h);

/// One wave as an outer product: cos(a + b) = cos a·cos b − sin a·sin b
/// with a per-column angle a = 2π·fu·x/w + phase and a per-row angle
/// b = 2π·fv·y/h, so a wave costs w + h sin/cos pairs instead of w·h cos.
class SeparableWave {
 public:
  SeparableWave(double fu, double fv, double phase, double amp,
                std::size_t w, std::size_t h);

  /// The separable value at (x, y); within 2^-42 of wave_reference.
  double approx(std::size_t x, std::size_t y) const {
    return col_cos_[x] * row_cos_[y] - col_sin_[x] * row_sin_[y];
  }

  /// float(wave_reference(…, x, y, …)), bit for bit: the separable value
  /// when every double within kWaveErr of it rounds to one float (Ziv's
  /// test; rounding is monotone), else the reference itself.
  float pixel(std::size_t x, std::size_t y) const {
    const double v = approx(x, y);
    const float lo = static_cast<float>(v - kWaveErr);
    if (lo == static_cast<float>(v + kWaveErr)) return lo;
    return static_cast<float>(
        wave_reference(fu_, fv_, phase_, amp_, x, y, w_, h_));
  }

 private:
  double fu_, fv_, phase_, amp_;
  std::size_t w_, h_;
  std::vector<double> col_cos_, col_sin_;  // amp·cos a, amp·sin a per column
  std::vector<double> row_cos_, row_sin_;  // cos b, sin b per row
};

/// Fills a (C,H,W) tensor with a smooth zero-mean random field: a sum of
/// `waves` random 2-D cosines per channel, normalized to unit variance.
void fill_smooth_field(Tensor& t, const ImageSpec& img, std::size_t waves,
                       Rng& rng);

}  // namespace detail

}  // namespace fedclust::data
