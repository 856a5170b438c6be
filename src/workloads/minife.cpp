// miniFE: implicit finite elements — assemble a sparse linear system from
// the steady-state conduction equation on a brick of linear 8-node hex
// elements, then solve with un-preconditioned CG (the Mantevo miniFE flow:
// generate_structure / assemble_FE_data / cg_solve).
#include "workloads/workloads.hpp"

namespace care::workloads {

namespace {

const char* kSource = R"(
// 4x4x4 elements -> 5x5x5 = 125 nodes; 27 couplings per node max.
int nex = 4;
int nnx = 5;
int nnodes = 125;
double K_vals[3375];     // nnodes * 27
int K_cols[3375];
int K_count[125];
int elemNodes[512];      // 64 elements * 8 nodes
double bvec[125];
double xvec[125];
double rvec[125];
double pvec[125];
double Apvec[125];

int nodeId(int ix, int iy, int iz) {
  return (iz * nnx + iy) * nnx + ix;
}

void build_connectivity() {
  int e = 0;
  for (int iz = 0; iz < nex; iz = iz + 1) {
    for (int iy = 0; iy < nex; iy = iy + 1) {
      for (int ix = 0; ix < nex; ix = ix + 1) {
        elemNodes[e * 8 + 0] = nodeId(ix, iy, iz);
        elemNodes[e * 8 + 1] = nodeId(ix + 1, iy, iz);
        elemNodes[e * 8 + 2] = nodeId(ix + 1, iy + 1, iz);
        elemNodes[e * 8 + 3] = nodeId(ix, iy + 1, iz);
        elemNodes[e * 8 + 4] = nodeId(ix, iy, iz + 1);
        elemNodes[e * 8 + 5] = nodeId(ix + 1, iy, iz + 1);
        elemNodes[e * 8 + 6] = nodeId(ix + 1, iy + 1, iz + 1);
        elemNodes[e * 8 + 7] = nodeId(ix, iy + 1, iz + 1);
        e = e + 1;
      }
    }
  }
}

// Scatter-add value into row's coupling list (search-or-append).
void matrixAdd(int row, int col, double v) {
  int cnt = K_count[row];
  for (int k = 0; k < cnt; k = k + 1) {
    if (K_cols[row * 27 + k] == col) {
      K_vals[row * 27 + k] = K_vals[row * 27 + k] + v;
      return;
    }
  }
  assert(cnt < 27);
  K_cols[row * 27 + cnt] = col;
  K_vals[row * 27 + cnt] = v;
  K_count[row] = cnt + 1;
}

void assemble() {
  for (int i = 0; i < nnodes; i = i + 1) {
    K_count[i] = 0;
    bvec[i] = 0.0;
  }
  // Element "stiffness": diffusion-like — diagonal 8, off-diagonal -8/7
  // scaled by shared-face weights; source vector 1 per node.
  int nelem = nex * nex * nex;
  for (int e = 0; e < nelem; e = e + 1) {
    for (int a = 0; a < 8; a = a + 1) {
      int ra = elemNodes[e * 8 + a];
      for (int b = 0; b < 8; b = b + 1) {
        int rb = elemNodes[e * 8 + b];
        double v = a == b ? 1.0 : (-1.0 / 7.0);
        matrixAdd(ra, rb, v);
      }
      bvec[ra] = bvec[ra] + 0.125;
    }
  }
  // Dirichlet boundary on the iz=0 face: pin those rows to identity.
  for (int iy = 0; iy < nnx; iy = iy + 1) {
    for (int ix = 0; ix < nnx; ix = ix + 1) {
      int row = nodeId(ix, iy, 0);
      for (int k = 0; k < K_count[row]; k = k + 1) {
        K_vals[row * 27 + k] = K_cols[row * 27 + k] == row ? 1.0 : 0.0;
      }
      bvec[row] = 0.0;
    }
  }
}

void matvec(double* p, double* Ap) {
  for (int row = 0; row < nnodes; row = row + 1) {
    double sum = 0.0;
    int cnt = K_count[row];
    for (int k = 0; k < cnt; k = k + 1) {
      sum = sum + K_vals[row * 27 + k] * p[K_cols[row * 27 + k]];
    }
    Ap[row] = sum;
  }
}

double dot(double* a, double* b) {
  double s = 0.0;
  for (int i = 0; i < nnodes; i = i + 1) { s = s + a[i] * b[i]; }
  return s;
}

int main() {
  build_connectivity();
  assemble();
  for (int i = 0; i < nnodes; i = i + 1) {
    xvec[i] = 0.0;
    rvec[i] = bvec[i];
    pvec[i] = bvec[i];
  }
  double rtrans = dot(rvec, rvec);
  int iter = 0;
  while (iter < 25 && rtrans > 0.0000000001) {
    matvec(pvec, Apvec);
    double pAp = dot(pvec, Apvec);
    double alpha = rtrans / pAp;
    for (int i = 0; i < nnodes; i = i + 1) {
      xvec[i] = xvec[i] + alpha * pvec[i];
      rvec[i] = rvec[i] - alpha * Apvec[i];
    }
    double rtransNew = dot(rvec, rvec);
    double beta = rtransNew / rtrans;
    rtrans = rtransNew;
    for (int i = 0; i < nnodes; i = i + 1) {
      pvec[i] = rvec[i] + beta * pvec[i];
    }
    iter = iter + 1;
    emit(rtrans);
  }
  emit(dot(xvec, xvec));
  emiti(iter);
  return 0;
}
)";

} // namespace

const Workload& minife() {
  static const Workload w{"miniFE", {{"minife.c", kSource}}};
  return w;
}

} // namespace care::workloads
