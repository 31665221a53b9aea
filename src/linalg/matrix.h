// Dense row-major matrix and vector of doubles. This is the single numeric
// container shared by the autodiff engine, the data generators, and the
// statistics code. Kept deliberately simple: contiguous storage, value
// semantics, checked element access in debug builds.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <utility>
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

  /// Builds a rows x cols matrix copying `data` (size must match).
  static Matrix FromData(int rows, int cols, const std::vector<double>& data);

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

  /// Gathers rows into `out`, reusing its storage whenever its capacity
  /// suffices (the zero-allocation path for minibatch assembly).
  void GatherRowsInto(const int* indices, int n, Matrix* out) const;

  /// Reshapes to rows x cols in place. The heap buffer is reused whenever
  /// the new element count fits the capacity already acquired, which is
  /// what the arena-style consumers (autodiff::Tape, SinkhornScratch,
  /// loss-builder scratch) rely on for zero-churn steady states; growth
  /// beyond it allocates exactly the new size. Nothing is written: element
  /// contents are unspecified after a shape-changing resize (new elements
  /// are uninitialized, not zero), so overwrite fully before reading.
  void Resize(int rows, int cols) {
    CERL_CHECK_GE(rows, 0);
    CERL_CHECK_GE(cols, 0);
    const size_t n = static_cast<size_t>(rows) * cols;
    // Growth drops the old contents first so the reallocation neither
    // copies them nor over-allocates.
    if (n > data_.capacity()) Storage().swap(data_);
    rows_ = rows;
    cols_ = cols;
    data_.resize(n);
  }

  /// Elements the buffer holds without reallocating.
  int64_t capacity() const { return static_cast<int64_t>(data_.capacity()); }

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
  // std::allocator that default-initializes instead of value-initializing,
  // so Storage::resize() leaves new elements uninitialized rather than
  // writing zeros over them (see Resize). Explicit fills (vector(n, v),
  // assign) still construct with the given value.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  using Storage = std::vector<double, DefaultInitAllocator<double>>;

  int rows_;
  int cols_;
  Storage data_;
};

}  // namespace cerl::linalg
