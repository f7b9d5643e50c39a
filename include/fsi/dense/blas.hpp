#pragma once
/// \file blas.hpp
/// \brief BLAS-style dense kernels (the reproduction's stand-in for MKL).
///
/// The paper's FSI implementation is built on Level-3 BLAS ("The main
/// operations of the FSI algorithm are Level-3 BLAS operations, such as
/// DGEMM").  No BLAS is installed in this environment, so these kernels are
/// implemented in this library: gemm packs its operands and runs one
/// register-blocked micro-kernel at every size, OpenMP-workshared only
/// above kParallelFlopThreshold; trsm/trtri are recursive blocked
/// algorithms that funnel their flops into gemm.  Every kernel credits its
/// textbook operation count to fsi::util::flops so benches can report Gflops
/// the same way the paper does.
///
/// Each kernel is a function template over the scalar, explicitly
/// instantiated for double and float in the .cpp files (the S/D pairs of the
/// BLAS naming scheme).  The concrete overloads below forward to the
/// templates; they exist because template argument deduction ignores the
/// implicit Matrix -> view conversions the call sites rely on.

#include "fsi/dense/matrix.hpp"

namespace fsi::dense {

/// Transposition selector (BLAS "TRANS").
enum class Trans { No, Yes };
/// Operand side for triangular operations (BLAS "SIDE").
enum class Side { Left, Right };
/// Triangle selector (BLAS "UPLO").
enum class Uplo { Lower, Upper };
/// Unit-diagonal selector (BLAS "DIAG").
enum class Diag { NonUnit, Unit };

/// C := alpha * op(A) * op(B) + beta * C   (DGEMM / SGEMM).
/// op(A) is m x k, op(B) is k x n, C is m x n.
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, BasicConstMatrixView<T> a,
          BasicConstMatrixView<T> b, T beta, BasicMatrixView<T> c);

inline void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                 ConstMatrixView b, double beta, MatrixView c) {
  gemm<double>(ta, tb, alpha, a, b, beta, c);
}
inline void gemm(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
                 ConstMatrixViewF b, float beta, MatrixViewF c) {
  gemm<float>(ta, tb, alpha, a, b, beta, c);
}

/// Convenience: C := A * B.
Matrix matmul(ConstMatrixView a, ConstMatrixView b);
MatrixF matmul(ConstMatrixViewF a, ConstMatrixViewF b);

/// y := alpha * op(A) * x + beta * y   (DGEMV / SGEMV).
template <typename T>
void gemv(Trans ta, T alpha, BasicConstMatrixView<T> a, const T* x, T beta,
          T* y);

inline void gemv(Trans ta, double alpha, ConstMatrixView a, const double* x,
                 double beta, double* y) {
  gemv<double>(ta, alpha, a, x, beta, y);
}
inline void gemv(Trans ta, float alpha, ConstMatrixViewF a, const float* x,
                 float beta, float* y) {
  gemv<float>(ta, alpha, a, x, beta, y);
}

/// A := A + alpha * x * y^T   (DGER / SGER, rank-1 update).
template <typename T>
void ger(T alpha, const T* x, const T* y, BasicMatrixView<T> a);

inline void ger(double alpha, const double* x, const double* y, MatrixView a) {
  ger<double>(alpha, x, y, a);
}
inline void ger(float alpha, const float* x, const float* y, MatrixViewF a) {
  ger<float>(alpha, x, y, a);
}

/// B := alpha * B + A  elementwise (shapes equal).
template <typename T>
void axpby(T alpha_b, BasicMatrixView<T> b, BasicConstMatrixView<T> a);

inline void axpby(double alpha_b, MatrixView b, ConstMatrixView a) {
  axpby<double>(alpha_b, b, a);
}
inline void axpby(float alpha_b, MatrixViewF b, ConstMatrixViewF a) {
  axpby<float>(alpha_b, b, a);
}

/// A := alpha * A.
template <typename T>
void scal(T alpha, BasicMatrixView<T> a);

inline void scal(double alpha, MatrixView a) { scal<double>(alpha, a); }
inline void scal(float alpha, MatrixViewF a) { scal<float>(alpha, a); }

/// Solve op(A) * X = alpha * B (Side::Left) or X * op(A) = alpha * B
/// (Side::Right) for X, in-place in B.  A is triangular (DTRSM / STRSM).
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          BasicConstMatrixView<T> a, BasicMatrixView<T> b);

inline void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
                 ConstMatrixView a, MatrixView b) {
  trsm<double>(side, uplo, trans, diag, alpha, a, b);
}
inline void trsm(Side side, Uplo uplo, Trans trans, Diag diag, float alpha,
                 ConstMatrixViewF a, MatrixViewF b) {
  trsm<float>(side, uplo, trans, diag, alpha, a, b);
}

/// B := alpha * op(A) * B (Side::Left) or alpha * B * op(A) (Side::Right),
/// A triangular (DTRMM / STRMM).
template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          BasicConstMatrixView<T> a, BasicMatrixView<T> b);

inline void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
                 ConstMatrixView a, MatrixView b) {
  trmm<double>(side, uplo, trans, diag, alpha, a, b);
}
inline void trmm(Side side, Uplo uplo, Trans trans, Diag diag, float alpha,
                 ConstMatrixViewF a, MatrixViewF b) {
  trmm<float>(side, uplo, trans, diag, alpha, a, b);
}

/// In-place inversion of the triangular matrix A (DTRTRI / STRTRI).
template <typename T>
void trtri(Uplo uplo, Diag diag, BasicMatrixView<T> a);

inline void trtri(Uplo uplo, Diag diag, MatrixView a) {
  trtri<double>(uplo, diag, a);
}
inline void trtri(Uplo uplo, Diag diag, MatrixViewF a) {
  trtri<float>(uplo, diag, a);
}

/// Threshold (in flops) below which gemm stays single-threaded: it then
/// runs the same packed micro-kernel without opening an OpenMP region.
/// It only decides whether to thread.  Exposed so benches/tests can
/// exercise both.
inline constexpr std::size_t kParallelFlopThreshold = 1u << 21;

}  // namespace fsi::dense
