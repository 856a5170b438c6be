// GTC-P: 2-D domain-decomposition gyrokinetic particle-in-cell core.
// Keeps the structure the paper highlights (§2.2, Fig. 2): flattened
// (mzeta+1) x grid arrays indexed through igrid/mtheta indirection tables,
// charge scatter, a smoothing field solve with the phitmp stencil, and a
// gather/push phase. igrid/mtheta never change after setup; igrid_in/mzeta
// are loop-invariant — the "infrequently updated raw data" CARE exploits.
#include "workloads/workloads.hpp"

namespace care::workloads {

namespace {

const char* kSource = R"(
int mpsi = 16;            // radial surfaces
int mzeta = 7;            // toroidal planes per domain
int mgrid = 351;          // sum over surfaces of mtheta[i]+1
int nparticles = 1500;
int nsteps = 3;

int igrid[17];            // start offset of each flux surface
int mtheta[17];           // poloidal points per surface
double chargei[3392];     // (mzeta+1) * mgrid  (flattened 2-D)
double phi[3392];
double phitmp[3392];
// particle phase space (parallel arrays, like zion(:) in GTC)
double zion1[1500];       // radial position in [0, mpsi-1)
double zion2[1500];       // poloidal position in [0, 1)
double zion3[1500];       // toroidal position in [0, mzeta)
double zion4[1500];       // weight
int kzion[1500];          // cached toroidal plane index
double seedstate = 12345.0;

double prng() {
  // Park-Miller-ish generator in doubles (deterministic across opt levels).
  seedstate = seedstate * 16807.0;
  double q = floor(seedstate / 2147483647.0);
  seedstate = seedstate - q * 2147483647.0;
  return seedstate / 2147483647.0;
}

int setup_grid() {
  int off = 0;
  for (int i = 0; i <= mpsi; i = i + 1) {
    igrid[i] = off;
    mtheta[i] = 16 + 2 * (i % 5);    // 16..24 poloidal points
    off = off + mtheta[i] + 1;
  }
  return off;
}

void load_particles() {
  for (int m = 0; m < nparticles; m = m + 1) {
    zion1[m] = prng() * (mpsi - 1);
    zion2[m] = prng();
    zion3[m] = prng() * mzeta;
    zion4[m] = prng() - 0.5;
    kzion[m] = (int)(zion3[m]);
  }
}

// Scatter particle charge onto the (mzeta+1) x mgrid mesh.
void chargei_scatter() {
  for (int ij = 0; ij < (mzeta + 1) * mgrid; ij = ij + 1) {
    chargei[ij] = 0.0;
  }
  for (int m = 0; m < nparticles; m = m + 1) {
    int ip = (int)(zion1[m]);
    int jt = (int)(zion2[m] * mtheta[ip]);
    int k = kzion[m];
    double w = zion4[m];
    int ij0 = (mzeta + 1) * (igrid[ip] + jt);
    // bilinear-ish deposit to the four surrounding mesh points
    chargei[ij0 + k] = chargei[ij0 + k] + w * 0.25;
    chargei[ij0 + k + 1] = chargei[ij0 + k + 1] + w * 0.25;
    int ij1 = (mzeta + 1) * (igrid[ip] + jt + 1);
    chargei[ij1 + k] = chargei[ij1 + k] + w * 0.25;
    chargei[ij1 + k + 1] = chargei[ij1 + k + 1] + w * 0.25;
  }
}

// Iterative smoothing field solve; inner loop is the paper's Fig. 2 code.
void field_solve() {
  for (int ij = 0; ij < (mzeta + 1) * mgrid; ij = ij + 1) {
    phitmp[ij] = chargei[ij];
  }
  for (int it = 0; it < 2; it = it + 1) {
    int igrid_in = igrid[0];
    for (int i = 0; i < mpsi; i = i + 1) {
      for (int j = 1; j < mtheta[i]; j = j + 1) {
        for (int k = 0; k < mzeta; k = k + 1) {
          // phi(k, igrid+j) from phitmp neighbours (Fig. 2 addressing)
          double left =
              phitmp[(mzeta + 1) * (igrid[i] + j - 1 - igrid_in) + k];
          double mid = phitmp[(mzeta + 1) * (igrid[i] + j - igrid_in) + k];
          double right =
              phitmp[(mzeta + 1) * (igrid[i] + j + 1 - igrid_in) + k];
          phi[(mzeta + 1) * (igrid[i] + j - igrid_in) + k] =
              0.25 * left + 0.5 * mid + 0.25 * right;
        }
      }
    }
    for (int ij = 0; ij < (mzeta + 1) * mgrid; ij = ij + 1) {
      phitmp[ij] = phi[ij];
    }
  }
}

// Gather field at particles and push.
void push() {
  for (int m = 0; m < nparticles; m = m + 1) {
    int ip = (int)(zion1[m]);
    int jt = (int)(zion2[m] * mtheta[ip]);
    int k = kzion[m];
    double e = phi[(mzeta + 1) * (igrid[ip] + jt) + k];
    zion2[m] = zion2[m] + 0.01 * e;
    if (zion2[m] >= 1.0) { zion2[m] = zion2[m] - 1.0; }
    if (zion2[m] < 0.0) { zion2[m] = zion2[m] + 1.0; }
    zion3[m] = zion3[m] + 0.1;
    if (zion3[m] >= mzeta) { zion3[m] = zion3[m] - mzeta; }
    kzion[m] = (int)(zion3[m]);
  }
}

int main() {
  int total = setup_grid();
  assert(total == mgrid);
  load_particles();
  for (int istep = 0; istep < nsteps; istep = istep + 1) {
    chargei_scatter();
    field_solve();
    push();
    // per-step diagnostics
    double fieldsum = 0.0;
    for (int ij = 0; ij < (mzeta + 1) * mgrid; ij = ij + 1) {
      fieldsum = fieldsum + phi[ij] * phi[ij];
    }
    emit(fieldsum);
    mpi_barrier();   // end-of-timestep synchronization point
  }
  double wsum = 0.0;
  for (int m = 0; m < nparticles; m = m + 1) {
    wsum = wsum + zion2[m] + zion3[m];
  }
  emit(wsum);
  return 0;
}
)";

} // namespace

const Workload& gtcp() {
  static const Workload w{"GTC-P", {{"gtcp.c", kSource}}};
  return w;
}

} // namespace care::workloads
