#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "linalg/simd.h"

namespace cerl::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<size_t>(rows_) * cols_);
  for (const auto& r : rows) {
    CERL_CHECK_EQ(static_cast<int>(r.size()), cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::FromData(int rows, int cols,
                        const std::vector<double>& data) {
  CERL_CHECK_EQ(static_cast<int64_t>(rows) * cols,
                static_cast<int64_t>(data.size()));
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.assign(data.begin(), data.end());
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RowVector(const Vector& v) {
  return FromData(1, static_cast<int>(v.size()), v);
}

Matrix Matrix::ColVector(const Vector& v) {
  return FromData(static_cast<int>(v.size()), 1, v);
}

Vector Matrix::RowCopy(int r) const {
  CERL_CHECK(r >= 0 && r < rows_);
  return Vector(row(r), row(r) + cols_);
}

Vector Matrix::ColCopy(int c) const {
  CERL_CHECK(c >= 0 && c < cols_);
  Vector out(rows_);
  for (int r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(int r, const Vector& v) {
  CERL_CHECK(r >= 0 && r < rows_);
  CERL_CHECK_EQ(static_cast<int>(v.size()), cols_);
  std::copy(v.begin(), v.end(), row(r));
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* src = row(r);
    for (int c = 0; c < cols_; ++c) t(c, r) = src[c];
  }
  return t;
}

Matrix Matrix::GatherRows(const std::vector<int>& indices) const {
  return GatherRows(indices.data(), static_cast<int>(indices.size()));
}

Matrix Matrix::GatherRows(const int* indices, int n) const {
  Matrix out;
  GatherRowsInto(indices, n, &out);
  return out;
}

void Matrix::GatherRowsInto(const int* indices, int n, Matrix* out) const {
  CERL_CHECK_GE(n, 0);
  out->Resize(n, cols_);
  for (int i = 0; i < n; ++i) {
    const int r = indices[i];
    CERL_CHECK(r >= 0 && r < rows_);
    std::copy(row(r), row(r) + cols_, out->row(i));
  }
}

void Matrix::Scale(double s) {
  simd::Kernels().vec_scale(s, data_.data(), data_.data(), size());
}

void Matrix::Add(const Matrix& other) {
  CERL_CHECK(SameShape(other));
  simd::Kernels().vec_accum(other.data_.data(), data_.data(), size());
}

void Matrix::Sub(const Matrix& other) {
  CERL_CHECK(SameShape(other));
  simd::Kernels().vec_sub(data_.data(), other.data_.data(), data_.data(),
                          size());
}

void Matrix::Axpy(double alpha, const Matrix& x) {
  CERL_CHECK(SameShape(x));
  simd::Kernels().vec_axpy(alpha, x.data_.data(), data_.data(), size());
}

void Matrix::CopyFrom(const Matrix& other) {
  CERL_CHECK(SameShape(other));
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CERL_CHECK(a.SameShape(b));
  double m = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::string out = "[" + std::to_string(rows_) + "x" + std::to_string(cols_) +
                    "]\n";
  const int rr = std::min(rows_, max_rows);
  const int cc = std::min(cols_, max_cols);
  char buf[32];
  for (int r = 0; r < rr; ++r) {
    for (int c = 0; c < cc; ++c) {
      std::snprintf(buf, sizeof(buf), "% 10.4f", (*this)(r, c));
      out += buf;
    }
    if (cc < cols_) out += " ...";
    out += "\n";
  }
  if (rr < rows_) out += "...\n";
  return out;
}

}  // namespace cerl::linalg
