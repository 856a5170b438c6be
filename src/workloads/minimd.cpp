// miniMD: Lennard-Jones molecular dynamics with explicit Verlet neighbor
// lists (cutoff + skin, periodic rebuild) — the Mantevo miniMD structure:
// build_neighbor / force / integrate.
#include "workloads/workloads.hpp"

namespace care::workloads {

namespace {

const char* kSource = R"(
int natoms = 216;          // 6x6x6 lattice
int nsteps = 3;
int rebuildEvery = 2;
int maxneigh = 64;
double boxlen = 7.2;
double cutforce2 = 2.56;   // 1.6^2
double cutneigh2 = 3.24;   // (1.6+0.2)^2
double dt = 0.002;

double px[216];
double py[216];
double pz[216];
double vx[216];
double vy[216];
double vz[216];
double ax[216];
double ay[216];
double az[216];
int numneigh[216];
int neighbors[13824];      // natoms * maxneigh
double seedstate = 4242.0;

double prng() {
  seedstate = seedstate * 16807.0;
  double q = floor(seedstate / 2147483647.0);
  seedstate = seedstate - q * 2147483647.0;
  return seedstate / 2147483647.0;
}

void create_atoms() {
  int m = 0;
  for (int iz = 0; iz < 6; iz = iz + 1) {
    for (int iy = 0; iy < 6; iy = iy + 1) {
      for (int ix = 0; ix < 6; ix = ix + 1) {
        px[m] = (ix + 0.5) * 1.2;
        py[m] = (iy + 0.5) * 1.2;
        pz[m] = (iz + 0.5) * 1.2;
        vx[m] = 0.2 * (prng() - 0.5);
        vy[m] = 0.2 * (prng() - 0.5);
        vz[m] = 0.2 * (prng() - 0.5);
        m = m + 1;
      }
    }
  }
}

void build_neighbor() {
  for (int i = 0; i < natoms; i = i + 1) {
    int count = 0;
    for (int j = 0; j < natoms; j = j + 1) {
      if (j != i) {
        // minimum image, written inline as in the reference miniMD kernels
        double dx = px[i] - px[j];
        if (dx > 0.5 * boxlen) { dx = dx - boxlen; }
        if (dx < -0.5 * boxlen) { dx = dx + boxlen; }
        double dy = py[i] - py[j];
        if (dy > 0.5 * boxlen) { dy = dy - boxlen; }
        if (dy < -0.5 * boxlen) { dy = dy + boxlen; }
        double dz = pz[i] - pz[j];
        if (dz > 0.5 * boxlen) { dz = dz - boxlen; }
        if (dz < -0.5 * boxlen) { dz = dz + boxlen; }
        double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 < cutneigh2 && count < maxneigh) {
          neighbors[i * maxneigh + count] = j;
          count = count + 1;
        }
      }
    }
    numneigh[i] = count;
  }
}

double force() {
  double epot = 0.0;
  for (int i = 0; i < natoms; i = i + 1) {
    ax[i] = 0.0;
    ay[i] = 0.0;
    az[i] = 0.0;
  }
  for (int i = 0; i < natoms; i = i + 1) {
    double fxi = 0.0;
    double fyi = 0.0;
    double fzi = 0.0;
    int nn = numneigh[i];
    for (int k = 0; k < nn; k = k + 1) {
      int j = neighbors[i * maxneigh + k];
      double dx = px[i] - px[j];
      if (dx > 0.5 * boxlen) { dx = dx - boxlen; }
      if (dx < -0.5 * boxlen) { dx = dx + boxlen; }
      double dy = py[i] - py[j];
      if (dy > 0.5 * boxlen) { dy = dy - boxlen; }
      if (dy < -0.5 * boxlen) { dy = dy + boxlen; }
      double dz = pz[i] - pz[j];
      if (dz > 0.5 * boxlen) { dz = dz - boxlen; }
      if (dz < -0.5 * boxlen) { dz = dz + boxlen; }
      double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 < cutforce2 && r2 > 0.001) {
        double ir2 = 1.0 / r2;
        double ir6 = ir2 * ir2 * ir2;
        double fpair = 48.0 * ir6 * (ir6 - 0.5) * ir2;
        fxi = fxi + fpair * dx;
        fyi = fyi + fpair * dy;
        fzi = fzi + fpair * dz;
        epot = epot + 2.0 * ir6 * (ir6 - 1.0);
      }
    }
    ax[i] = fxi;
    ay[i] = fyi;
    az[i] = fzi;
  }
  return epot;
}

void pbc() {
  for (int i = 0; i < natoms; i = i + 1) {
    if (px[i] < 0.0) { px[i] = px[i] + boxlen; }
    if (px[i] >= boxlen) { px[i] = px[i] - boxlen; }
    if (py[i] < 0.0) { py[i] = py[i] + boxlen; }
    if (py[i] >= boxlen) { py[i] = py[i] - boxlen; }
    if (pz[i] < 0.0) { pz[i] = pz[i] + boxlen; }
    if (pz[i] >= boxlen) { pz[i] = pz[i] - boxlen; }
  }
}

int main() {
  create_atoms();
  build_neighbor();
  double epot = force();
  for (int step = 0; step < nsteps; step = step + 1) {
    for (int i = 0; i < natoms; i = i + 1) {
      vx[i] = vx[i] + 0.5 * dt * ax[i];
      vy[i] = vy[i] + 0.5 * dt * ay[i];
      vz[i] = vz[i] + 0.5 * dt * az[i];
      px[i] = px[i] + dt * vx[i];
      py[i] = py[i] + dt * vy[i];
      pz[i] = pz[i] + dt * vz[i];
    }
    pbc();
    if (step % rebuildEvery == 0) { build_neighbor(); }
    epot = force();
    double ekin = 0.0;
    for (int i = 0; i < natoms; i = i + 1) {
      vx[i] = vx[i] + 0.5 * dt * ax[i];
      vy[i] = vy[i] + 0.5 * dt * ay[i];
      vz[i] = vz[i] + 0.5 * dt * az[i];
      ekin = ekin + 0.5 * (vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i]);
    }
    emit(epot);
    emit(ekin);
  }
  return 0;
}
)";

} // namespace

const Workload& minimd() {
  static const Workload w{"miniMD", {{"minimd.c", kSource}}};
  return w;
}

} // namespace care::workloads
