// The client half of a deployed mechanism: turn one user's true type into
// one privatized report.
//
// Three report shapes cover every mechanism in this library:
//   * categorical — strategy-matrix mechanisms (Definition 2.5) emit an
//     output index o in [0, m); the server-side aggregate is the response
//     histogram y with y_o = #{reports == o};
//   * dense — additive-noise mechanisms (the distributed Matrix Mechanism)
//     emit a real m-vector A e_u + xi; the aggregate is the coordinatewise
//     sum;
//   * bit vector — unary-encoding frequency oracles (RAPPOR, OUE) emit n
//     independently randomized bits of the one-hot encoding e_u; the
//     aggregate is the per-coordinate count of set bits.
// All three are the same operation once a categorical report is read as the
// one-hot vector e_o and a bit vector as a 0/1 m-vector: the server only
// ever needs the sum of reports, which is why one Reporter interface (and
// one collect/ pipeline) serves them all. The decode differs: categorical
// and dense aggregates reconstruct linearly (x_hat = B y), bit-vector
// aggregates affinely against the report count N (x_hat = (y - N q)/(p - q),
// estimation/decoder.h).
//
// Bit-vector reports are held packed (PackedBits), 64 bits per word in the
// layout of the wire payload, so a report is built, encoded, decoded and
// counted a word at a time rather than a byte per bit.

#ifndef WFM_LDP_REPORTER_H_
#define WFM_LDP_REPORTER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "ldp/local_randomizer.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"

namespace wfm {

/// An n-bit vector packed 64 bits to a word: bit i lives in word i / 64 at
/// bit i % 64, so on a little-endian host the words are byte for byte the
/// packed payload of a wire bit-vector report (wire/wire_format.h). Padding
/// bits past size() are always zero, so every bit vector has exactly one
/// representation and operator== compares words.
class PackedBits {
 public:
  PackedBits() = default;
  /// Packs one 0/1 byte per bit; an entry > 1 aborts (a byte vector that is
  /// not a bit vector is a caller bug — untrusted bits arrive packed, through
  /// DecodeReport).
  explicit PackedBits(std::span<const std::uint8_t> bytes);
  PackedBits(std::initializer_list<std::uint8_t> bytes)
      : PackedBits(
            std::span<const std::uint8_t>(bytes.begin(), bytes.size())) {}
  /// All-zero vector of `size` bits.
  static PackedBits Zeros(int size);

  PackedBits(const PackedBits& other);
  PackedBits& operator=(const PackedBits& other);
  PackedBits(PackedBits&& other) noexcept;
  PackedBits& operator=(PackedBits&& other) noexcept;

  /// Number of bits n (not words).
  std::size_t size() const { return static_cast<std::size_t>(size_); }
  bool empty() const { return size_ == 0; }
  /// Bit i as 0 or 1; i must be below size().
  std::uint8_t operator[](std::size_t i) const {
    return static_cast<std::uint8_t>((words_[i / 64] >> (i % 64)) & 1);
  }
  /// The ceil(n / 64) packed words.
  std::span<const std::uint64_t> words() const {
    return {words_.get(), NumWords()};
  }
  /// Writable words for code that fills a vector word by word (the reporter,
  /// the wire decoder). Writers must leave the padding bits zero.
  std::span<std::uint64_t> mutable_words() {
    return {words_.get(), NumWords()};
  }

  friend bool operator==(const PackedBits& a, const PackedBits& b);

 private:
  std::size_t NumWords() const { return (size() + 63) / 64; }

  int size_ = 0;
  std::unique_ptr<std::uint64_t[]> words_;
};

// A Report carries one of these per bit-vector report; anything wider than
// a pointer plus the bit count grows every Report in flight.
static_assert(sizeof(PackedBits) <= sizeof(void*) + 8,
              "PackedBits must stay a pointer plus the bit count");

/// One user's privatized report — the only data that leaves the device.
/// Exactly one shape is populated: `bits` for unary-encoding mechanisms,
/// `dense` for additive ones, `index` otherwise.
struct Report {
  /// Categorical response index in [0, m); meaningful iff the other shapes
  /// are empty.
  int index = -1;
  /// Dense m-vector report; non-empty iff the mechanism is additive.
  Vector dense;
  /// n-bit unary-encoding report; non-empty iff the mechanism is a
  /// frequency oracle (RAPPOR/OUE).
  PackedBits bits;

  bool is_dense() const { return !dense.empty(); }
  bool is_bits() const { return !bits.empty(); }

  friend bool operator==(const Report&, const Report&) = default;
};

/// Interface for the on-device half of a deployment (see Mechanism::Deploy).
class Reporter {
 public:
  virtual ~Reporter() = default;

  /// Report dimension m: the response alphabet size for categorical
  /// reporters, the report vector length for dense and bit-vector ones.
  virtual int num_outputs() const = 0;

  /// Domain size n this reporter was built for.
  virtual int num_types() const = 0;

  /// True when Respond emits dense vectors instead of indices.
  virtual bool dense_reports() const = 0;

  /// True when Respond emits n-bit vectors (unary-encoding mechanisms).
  virtual bool bit_vector_reports() const { return false; }

  /// Privatizes one user's true type.
  virtual Report Respond(int user_type, Rng& rng) const = 0;
};

/// Categorical reporter for a strategy Q = ⊗ Q_i of k >= 1 column-stochastic
/// factors; k = 1 is a plain strategy matrix. The columns of ⊗ Q_i are the
/// ⊗ of factor columns, so sampling the composed channel is sampling each
/// factor independently. The user type decomposes mixed-radix into
/// per-factor types (factor 0 most significant, matching linalg/kron.h) and
/// the output index is the same flattening of the factor outputs — a report
/// costs k small alias-table draws, never touching the Π m_i x Π n_i
/// product. Factors are drawn in index order, so k = 1 draws exactly like
/// LocalRandomizer::Respond (same RNG consumption) and a Reporter-based
/// pipeline is bit-identical to manual wiring.
class StrategyReporter final : public Reporter {
 public:
  /// `factors` are the per-factor strategies Q_i; the composed output
  /// alphabet Π m_i must fit an int.
  explicit StrategyReporter(const std::vector<Matrix>& factors);

  int num_outputs() const override { return m_; }
  int num_types() const override { return n_; }
  bool dense_reports() const override { return false; }
  Report Respond(int user_type, Rng& rng) const override;

 private:
  /// Respond's output index for k >= 2 factors.
  int RespondFactored(int user_type, Rng& rng) const;

  std::vector<LocalRandomizer> randomizers_;
  /// strides_[i] = Π_{j > i} n_j, the place value of factor i's type digit.
  std::vector<int> strides_;
  int n_ = 1;
  int m_ = 1;
};

/// Client half of unary-encoding frequency oracles (RAPPOR, OUE): one-hot
/// encode the type into n bits, then report each bit independently as 1 with
/// probability p if the true bit is 1 and q if it is 0 (one Bernoulli draw
/// per bit, in coordinate order, packed into words as they are drawn). The
/// matching server half is ReportDecoder's AffineDebias{p, q} mode.
///
/// Each draw is rng.Bernoulli(prob), computed on integers against
/// Rng::BernoulliThreshold(prob), so reports are bit-identical to the
/// Bernoulli loop and the loop does no int-to-double conversion.
class BitVectorReporter final : public Reporter {
 public:
  /// `prob_one_given_one` is p, `prob_one_given_zero` is q; unbiased
  /// decoding requires p > q (RAPPOR: p = 1 - f, q = f; OUE: p = 1/2,
  /// q = 1/(e^eps + 1)).
  BitVectorReporter(int n, double prob_one_given_one,
                    double prob_one_given_zero);

  int num_outputs() const override { return n_; }  // m == n for bit vectors.
  int num_types() const override { return n_; }
  bool dense_reports() const override { return false; }
  bool bit_vector_reports() const override { return true; }
  Report Respond(int user_type, Rng& rng) const override;

  double prob_one_given_one() const { return p_; }
  double prob_one_given_zero() const { return q_; }

 private:
  int n_;
  double p_;
  double q_;
  std::uint64_t p_threshold_;  ///< Rng::BernoulliThreshold(p).
  std::uint64_t q_threshold_;  ///< Rng::BernoulliThreshold(q).
};

}  // namespace wfm

#endif  // WFM_LDP_REPORTER_H_
