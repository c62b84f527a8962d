#include "fl/comm.hpp"

#include <numeric>
#include <utility>

#include "utils/error.hpp"

namespace fedclust::fl {

void CommMeter::begin_round(std::size_t round) {
  FEDCLUST_REQUIRE(round == down_.size(),
                   "rounds must be opened in order starting at 0: expected "
                       << down_.size() << ", got " << round
                       << " (out-of-order or repeated begin_round)");
  down_.push_back(0);
  up_.push_back(0);
}

void CommMeter::download(std::uint64_t bytes) {
  FEDCLUST_REQUIRE(!down_.empty(), "begin_round before recording traffic");
  down_.back() += bytes;
  total_down_ += bytes;
}

void CommMeter::upload(std::uint64_t bytes) {
  FEDCLUST_REQUIRE(!up_.empty(), "begin_round before recording traffic");
  up_.back() += bytes;
  total_up_ += bytes;
}

void CommMeter::reset() {
  down_.clear();
  up_.clear();
  total_down_ = 0;
  total_up_ = 0;
}

void CommMeter::restore(std::vector<std::uint64_t> round_down,
                        std::vector<std::uint64_t> round_up,
                        std::uint64_t total_down, std::uint64_t total_up) {
  FEDCLUST_REQUIRE(round_down.size() == round_up.size(),
                   "restore: per-round series must have equal length");
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  FEDCLUST_REQUIRE(sum(round_down) == total_down && sum(round_up) == total_up,
                   "restore: totals " << total_down << "/" << total_up
                                      << " disagree with the per-round sums "
                                      << sum(round_down) << "/"
                                      << sum(round_up));
  down_ = std::move(round_down);
  up_ = std::move(round_up);
  total_down_ = total_down;
  total_up_ = total_up;
}

}  // namespace fedclust::fl
