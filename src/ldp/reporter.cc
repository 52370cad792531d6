#include "ldp/reporter.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "linalg/kron.h"

namespace wfm {

PackedBits::PackedBits(std::span<const std::uint8_t> bytes)
    : PackedBits(Zeros(static_cast<int>(bytes.size()))) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    WFM_CHECK_LE(bytes[i], 1) << "bit entry out of range:"
                              << static_cast<int>(bytes[i]) << "at coordinate"
                              << static_cast<int>(i);
    words_[i / 64] |= static_cast<std::uint64_t>(bytes[i]) << (i % 64);
  }
}

PackedBits PackedBits::Zeros(int size) {
  WFM_CHECK_GE(size, 0);
  PackedBits bits;
  bits.size_ = size;
  if (size > 0) {
    bits.words_ = std::make_unique<std::uint64_t[]>(bits.NumWords());
  }
  return bits;
}

PackedBits::PackedBits(const PackedBits& other)
    : PackedBits(Zeros(other.size_)) {
  std::copy_n(other.words_.get(), NumWords(), words_.get());
}

PackedBits& PackedBits::operator=(const PackedBits& other) {
  if (this != &other) *this = PackedBits(other);
  return *this;
}

PackedBits::PackedBits(PackedBits&& other) noexcept
    : size_(std::exchange(other.size_, 0)), words_(std::move(other.words_)) {}

PackedBits& PackedBits::operator=(PackedBits&& other) noexcept {
  size_ = std::exchange(other.size_, 0);
  words_ = std::move(other.words_);
  return *this;
}

bool operator==(const PackedBits& a, const PackedBits& b) {
  return a.size_ == b.size_ &&
         std::equal(a.words_.get(), a.words_.get() + a.NumWords(),
                    b.words_.get());
}

StrategyReporter::StrategyReporter(const std::vector<Matrix>& factors) {
  WFM_CHECK(!factors.empty()) << "strategy reporter needs at least one factor";
  std::int64_t n = 1;
  std::int64_t m = 1;
  randomizers_.reserve(factors.size());
  for (const Matrix& q : factors) {
    randomizers_.emplace_back(q);
    n = CheckedMulNonNegative(n, q.cols());
    m = CheckedMulNonNegative(m, q.rows());
  }
  WFM_CHECK_LE(n, std::numeric_limits<int>::max());
  WFM_CHECK_LE(m, std::numeric_limits<int>::max())
      << "composed output alphabet exceeds int";
  n_ = static_cast<int>(n);
  m_ = static_cast<int>(m);
  strides_.resize(factors.size());
  int stride = 1;
  for (std::size_t i = factors.size(); i-- > 0;) {
    strides_[i] = stride;
    stride *= randomizers_[i].num_types();
  }
}

Report StrategyReporter::Respond(int user_type, Rng& rng) const {
  Report report;
  report.index = randomizers_.size() == 1
                     ? randomizers_[0].Respond(user_type, rng)
                     : RespondFactored(user_type, rng);
  return report;
}

// Out of line, so the one-factor path above keeps the two-register prologue
// of a plain LocalRandomizer call: inlined, the loop's live values raised
// dense-prefix device_us (perfbench medians) by 6-10%.
[[gnu::noinline]] int StrategyReporter::RespondFactored(int user_type,
                                                        Rng& rng) const {
  // Peel the type digits from the most significant end, drawing each
  // factor as its digit appears; the last factor takes the remainder with
  // no division. An out-of-range type aborts in a factor's LocalRandomizer:
  // at or past n, digit 0 reaches n_0; below 0, a digit or the remainder is
  // negative.
  const std::size_t last = randomizers_.size() - 1;
  int rest = user_type;
  int out = 0;
  for (std::size_t i = 0; i < last; ++i) {
    const int digit = rest / strides_[i];
    rest -= digit * strides_[i];
    out = out * randomizers_[i].num_outputs() +
          randomizers_[i].Respond(digit, rng);
  }
  return out * randomizers_[last].num_outputs() +
         randomizers_[last].Respond(rest, rng);
}

BitVectorReporter::BitVectorReporter(int n, double prob_one_given_one,
                                     double prob_one_given_zero)
    : n_(n), p_(prob_one_given_one), q_(prob_one_given_zero) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK(q_ >= 0.0 && q_ < p_ && p_ <= 1.0)
      << "bit-vector reporter requires 0 <= q < p <= 1, got p =" << p_
      << "q =" << q_;
  p_threshold_ = Rng::BernoulliThreshold(p_);
  q_threshold_ = Rng::BernoulliThreshold(q_);
}

Report BitVectorReporter::Respond(int user_type, Rng& rng) const {
  WFM_CHECK(user_type >= 0 && user_type < n_)
      << "user type out of range:" << user_type << "for n =" << n_;
  Report report;
  report.bits = PackedBits::Zeros(n_);
  const std::span<std::uint64_t> words = report.bits.mutable_words();
  // Same draws in the same order as one Bernoulli per coordinate (compared
  // on integers, see the class comment); each word is assembled in a
  // register and stored once. Bits enter at the top and shift down (a
  // constant shift per draw), so after the word's last draw bit `begin`
  // sits at 64 - len and one shift aligns the word.
  for (std::size_t w = 0; w < words.size(); ++w) {
    const int begin = static_cast<int>(w) * 64;
    const int len = std::min(n_ - begin, 64);
    std::uint64_t word = 0;
    for (int i = begin; i < begin + len; ++i) {
      const std::uint64_t threshold =
          i == user_type ? p_threshold_ : q_threshold_;
      const bool bit = (rng.NextUint64() >> 11) < threshold;
      word = (word >> 1) | (static_cast<std::uint64_t>(bit) << 63);
    }
    words[w] = word >> (64 - len);
  }
  return report;
}

}  // namespace wfm
