// Dense row-major matrix of doubles plus the product kernels used by the
// factorization mechanism.
//
// This is the numerical substrate of the repository (no external linear
// algebra library is used). Dimensions use `int`; all matrices in this
// problem are at most a few thousand on a side (the paper's largest
// experiment is n = 4096, m = 4n).

#ifndef WFM_LINALG_MATRIX_H_
#define WFM_LINALG_MATRIX_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace wfm {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;

  /// Creates a zero-initialized rows x cols matrix.
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, 0.0) {
    WFM_CHECK_GE(rows, 0);
    WFM_CHECK_GE(cols, 0);
  }

  /// Reshapes to rows x cols and zero-fills, reusing the existing capacity
  /// when it suffices. The workspace-based kernels (*Into) use this so a
  /// buffer sized once on warm-up never reallocates in steady state.
  void Resize(int rows, int cols) {
    WFM_CHECK_GE(rows, 0);
    WFM_CHECK_GE(cols, 0);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0);
  }

  /// Resize without the zero-fill pass: contents are unspecified. For
  /// consumers that overwrite every element anyway (transpose targets,
  /// gradient buffers) — skips a full-matrix write in the optimizer loop.
  void ResizeUninitialized(int rows, int cols) {
    WFM_CHECK_GE(rows, 0);
    WFM_CHECK_GE(cols, 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows) * cols);
  }

  /// Creates a matrix from nested initializer lists (test convenience):
  ///   Matrix m{{1, 2}, {3, 4}};
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(int n);
  static Matrix Diagonal(const Vector& d);
  /// Single-row matrix view of a vector.
  static Matrix RowVector(const Vector& v);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(int r, int c) {
    WFM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    WFM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  double* RowPtr(int r) { return data_.data() + static_cast<std::size_t>(r) * cols_; }
  const double* RowPtr(int r) const {
    return data_.data() + static_cast<std::size_t>(r) * cols_;
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Vector Row(int r) const;
  Vector Col(int c) const;
  void SetRow(int r, const Vector& v);
  void SetCol(int c, const Vector& v);

  Matrix Transpose() const;

  Vector RowSums() const;
  /// Allocation-free variant: writes the row sums into `out` (resized).
  void RowSumsInto(Vector& out) const;
  Vector ColSums() const;

  double Trace() const;
  double FrobeniusNormSq() const;
  /// max_{r,c} |a_rc|.
  double MaxAbs() const;
  double Sum() const;

  /// True if every entry of (*this - other) has absolute value <= tol.
  bool ApproxEquals(const Matrix& other, double tol) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// Human-readable rendering for error messages and debugging.
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

// ---- Product kernels ------------------------------------------------------
//
// All three dense products share one register-tiled, cache-blocked GEMM core:
// panels of B (and the transposed operand, where one is involved) are packed
// into contiguous buffers so the k-loop streams unit-stride regardless of the
// product flavor, and 4x8 output tiles accumulate in registers instead of
// re-writing C rows per k step. Large products split row tiles across the
// persistent ThreadPool (linalg/thread_pool.h); results are bit-identical
// across thread counts because each output tile is computed by exactly one
// thread in a fixed k order. Small products take a scalar fast path — packing
// overhead would dominate.
//
// The *Into variants write into a caller-owned matrix/vector (resized,
// capacity reused) and perform no heap allocation in steady state beyond a
// thread-local packing buffer that grows once; they are the building blocks
// of the optimizer's zero-allocation inner loop. The output must not alias
// either input. Value-returning forms are thin wrappers.

/// C = A * B.
Matrix Multiply(const Matrix& a, const Matrix& b);
void MultiplyInto(const Matrix& a, const Matrix& b, Matrix& c);
/// C = Aᵀ * B without materializing Aᵀ.
Matrix MultiplyATB(const Matrix& a, const Matrix& b);
void MultiplyATBInto(const Matrix& a, const Matrix& b, Matrix& c);
/// C = A * Bᵀ without materializing Bᵀ.
Matrix MultiplyABT(const Matrix& a, const Matrix& b);
void MultiplyABTInto(const Matrix& a, const Matrix& b, Matrix& c);

/// y = A x. Rows split across the thread pool for large matrices.
Vector MultiplyVec(const Matrix& a, const Vector& x);
void MultiplyVecInto(const Matrix& a, const Vector& x, Vector& y);
/// y = Aᵀ x. Output columns split across the thread pool for large matrices.
Vector MultiplyTVec(const Matrix& a, const Vector& x);
void MultiplyTVecInto(const Matrix& a, const Vector& x, Vector& y);

/// out = aᵀ (blocked transpose into a caller-owned matrix, resized).
void TransposeInto(const Matrix& a, Matrix& out);

/// Scales row r of `a` by s[r] in place (equivalent to Diag(s) * A).
void ScaleRows(Matrix& a, const Vector& s);
/// Scales column c of `a` by s[c] in place (equivalent to A * Diag(s)).
void ScaleCols(Matrix& a, const Vector& s);

// ---- Vector helpers -------------------------------------------------------

double Dot(const Vector& a, const Vector& b);
double NormSq(const Vector& a);
double Sum(const Vector& a);
double MaxAbsVec(const Vector& a);

}  // namespace wfm

#endif  // WFM_LINALG_MATRIX_H_
