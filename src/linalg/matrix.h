// Dense row-major matrix and vector of doubles. This is the single numeric
// container shared by the autodiff engine, the data generators, and the
// statistics code. Kept deliberately simple: contiguous storage, value
// semantics, checked element access in debug builds.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace cerl::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of double.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix initialized to `fill`.
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    CERL_CHECK_GE(rows, 0);
    CERL_CHECK_GE(cols, 0);
  }

  /// Builds from nested initializer list; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Builds a rows x cols matrix adopting `data` (size must match).
  static Matrix FromData(int rows, int cols, std::vector<double> data);

  /// n x n identity.
  static Matrix Identity(int n);

  /// 1 x n row matrix from a vector.
  static Matrix RowVector(const Vector& v);

  /// n x 1 column matrix from a vector.
  static Matrix ColVector(const Vector& v);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return size() == 0; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double& operator()(int r, int c) {
    CERL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    CERL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Pointer to the start of row r.
  double* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Copies row r into a Vector.
  Vector RowCopy(int r) const;

  /// Copies column c into a Vector.
  Vector ColCopy(int c) const;

  /// Sets row r from a vector of length cols().
  void SetRow(int r, const Vector& v);

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Returns the sub-matrix of the given rows (by index, in order).
  Matrix GatherRows(const std::vector<int>& indices) const;
  Matrix GatherRows(const int* indices, int n) const;

  /// Gathers rows into `out`, reusing its storage when the shape already
  /// matches (the zero-allocation path for minibatch assembly).
  void GatherRowsInto(const int* indices, int n, Matrix* out) const;

  /// Reshapes to rows x cols in place. The heap buffer is reused whenever
  /// the new element count fits the capacity already acquired
  /// (std::vector::resize allocates only on growth), which is what the
  /// arena-style consumers (SinkhornWorkspace, loss-builder scratch) rely on
  /// for zero-churn steady states. Element contents are unspecified after a
  /// shape-changing resize; overwrite fully before reading.
  void Resize(int rows, int cols) {
    CERL_CHECK_GE(rows, 0);
    CERL_CHECK_GE(cols, 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<size_t>(rows) * cols);
  }

  /// Elementwise in-place operations.
  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  void Scale(double s);
  void Add(const Matrix& other);
  void Sub(const Matrix& other);

  /// this += alpha * x (elementwise; shapes must match).
  void Axpy(double alpha, const Matrix& x);

  /// Copies `other`'s elements into this matrix without reallocating;
  /// shapes must already match.
  void CopyFrom(const Matrix& other);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

  /// Human-readable preview (small matrices only; truncated otherwise).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

}  // namespace cerl::linalg
