// HPCCG: un-preconditioned conjugate gradient on a 27-point stencil over a
// 3-D chimney domain, sparse matrix in CSR form (matches the Mantevo
// mini-app's structure: generate_matrix + ddot/waxpby/sparsemv kernels).
#include "workloads/workloads.hpp"

namespace care::workloads {

namespace {

const char* kSource = R"(
// 8x8x8 grid, 27-point stencil.
int nx = 8;
int ny = 8;
int nz = 8;
int nrow = 512;          // nx*ny*nz
double A_vals[13824];    // <= 27 per row
int A_cols[13824];
int A_rowstart[513];
int A_nnzrow[512];
double xv[512];
double bv[512];
double rv[512];
double pv[512];
double Apv[512];

// Build the 27-point matrix: diagonal 26.0, off-diagonals -1.0.
int generate_matrix() {
  int nnz = 0;
  for (int iz = 0; iz < nz; iz = iz + 1) {
    for (int iy = 0; iy < ny; iy = iy + 1) {
      for (int ix = 0; ix < nx; ix = ix + 1) {
        int row = iz * nx * ny + iy * nx + ix;
        A_rowstart[row] = nnz;
        int cnt = 0;
        for (int sz = -1; sz <= 1; sz = sz + 1) {
          for (int sy = -1; sy <= 1; sy = sy + 1) {
            for (int sx = -1; sx <= 1; sx = sx + 1) {
              int cz = iz + sz;
              int cy = iy + sy;
              int cx = ix + sx;
              if (cz >= 0 && cz < nz && cy >= 0 && cy < ny &&
                  cx >= 0 && cx < nx) {
                int col = cz * nx * ny + cy * nx + cx;
                A_cols[nnz] = col;
                A_vals[nnz] = col == row ? 26.0 : -1.0;
                nnz = nnz + 1;
                cnt = cnt + 1;
              }
            }
          }
        }
        A_nnzrow[row] = cnt;
      }
    }
  }
  A_rowstart[nrow] = nnz;
  return nnz;
}

double ddot(double* x, double* y, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) { s = s + x[i] * y[i]; }
  return s;
}

void waxpby(double alpha, double* x, double beta, double* y, double* w,
            int n) {
  for (int i = 0; i < n; i = i + 1) { w[i] = alpha * x[i] + beta * y[i]; }
}

void sparsemv(double* p, double* Ap) {
  for (int row = 0; row < nrow; row = row + 1) {
    double sum = 0.0;
    int start = A_rowstart[row];
    int end = start + A_nnzrow[row];
    for (int j = start; j < end; j = j + 1) {
      sum = sum + A_vals[j] * p[A_cols[j]];
    }
    Ap[row] = sum;
  }
}

int main() {
  generate_matrix();
  // b = A * ones, x = 0 (exact solution = ones).
  for (int i = 0; i < nrow; i = i + 1) {
    xv[i] = 0.0;
    pv[i] = 1.0;
  }
  sparsemv(pv, bv);
  // r = b, p = r.
  for (int i = 0; i < nrow; i = i + 1) {
    rv[i] = bv[i];
    pv[i] = bv[i];
  }
  double rtrans = ddot(rv, rv, nrow);
  int maxiter = 15;
  double tol = 0.0000000001;
  int iter = 0;
  while (iter < maxiter && rtrans > tol) {
    sparsemv(pv, Apv);
    double alpha = rtrans / ddot(pv, Apv, nrow);
    waxpby(1.0, xv, alpha, pv, xv, nrow);
    waxpby(1.0, rv, -alpha, Apv, rv, nrow);
    double rtransNew = ddot(rv, rv, nrow);
    double beta = rtransNew / rtrans;
    rtrans = rtransNew;
    waxpby(1.0, rv, beta, pv, pv, nrow);
    iter = iter + 1;
    emit(rtrans);
  }
  // Solution checksum: should be ~nrow (all ones).
  emit(ddot(xv, xv, nrow));
  emiti(iter);
  return 0;
}
)";

} // namespace

const Workload& hpccg() {
  static const Workload w{"HPCCG", {{"hpccg.c", kSource}}};
  return w;
}

} // namespace care::workloads
