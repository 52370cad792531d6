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

BitVectorReporter::BitVectorReporter(int n, double p, double q) : n_(n) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK(q >= 0.0 && q < p && p <= 1.0)
      << "bit-vector reporter requires 0 <= q < p <= 1, got p =" << p
      << "q =" << q;
  p_threshold_ = Rng::BernoulliThreshold(p);
  q_threshold_ = Rng::BernoulliThreshold(q);
}

Report BitVectorReporter::Respond(int user_type, Rng& rng) const {
  WFM_CHECK(user_type >= 0 && user_type < n_)
      << "user type out of range:" << user_type << "for n =" << n_;
  Report report;
  report.bits = PackedBits::Zeros(n_);
  const std::span<std::uint64_t> words = report.bits.mutable_words();
  constexpr std::uint64_t kAlways = std::uint64_t{1} << 53;
  // One draw advances every lane of a word by one bit of U_j, compared with
  // the same bit of t_j (see the class comment): where U_j's bit is 0 and
  // t_j's is 1, U_j < t_j and the lane is 1; the reverse makes it 0. A lane
  // still tied after 53 draws has U_j == t_j, so it stays 0.
  for (std::size_t w = 0; w < words.size(); ++w) {
    const int begin = static_cast<int>(w) * 64;
    const int len = std::min(n_ - begin, 64);
    const std::uint64_t live =
        len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
    const int user_lane = user_type - begin;
    const std::uint64_t user =
        user_lane >= 0 && user_lane < 64 ? std::uint64_t{1} << user_lane : 0;
    std::uint64_t word = 0;
    std::uint64_t undecided = live;
    // A threshold of 0 or 2^53 decides its lanes with no draw.
    const auto settle = [&](std::uint64_t threshold, std::uint64_t lanes) {
      if (threshold == kAlways) word |= lanes;
      if (threshold == 0 || threshold == kAlways) undecided &= ~lanes;
    };
    settle(p_threshold_, user);
    settle(q_threshold_, live & ~user);
    for (int b = 52; undecided != 0 && b >= 0; --b) {
      const std::uint64_t r = rng.NextUint64();
      const std::uint64_t t = (-((q_threshold_ >> b) & 1) & ~user) |
                              (-((p_threshold_ >> b) & 1) & user);
      word |= ~r & t & undecided;
      undecided &= ~(r ^ t);
    }
    words[w] = word;
  }
  return report;
}

}  // namespace wfm
