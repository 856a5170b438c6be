// CoMD: classical molecular dynamics with Lennard-Jones potential and
// cell-list force evaluation (link cells + 27-neighbour sweep), velocity
// Verlet integration — the reference implementation's structure with
// parallel atom arrays instead of C structs.
#include "workloads/workloads.hpp"

namespace care::workloads {

namespace {

const char* kSource = R"(
int ncx = 4;              // cells per dimension
int ncells = 64;          // ncx^3
int maxatoms = 8;         // per cell
int natoms = 256;         // 4 per cell initially
int nsteps = 2;
double boxlen = 8.0;      // cell size 2.0 = cutoff
double cutoff2 = 4.0;
double dt = 0.002;

// Atom storage: cell-major, slot-minor (CoMD's linkCell layout).
int cellCount[64];
double rx[512];           // ncells * maxatoms slots
double ry[512];
double rz[512];
double vx[512];
double vy[512];
double vz[512];
double fx[512];
double fy[512];
double fz[512];
double seedstate = 777.0;

double prng() {
  seedstate = seedstate * 16807.0;
  double q = floor(seedstate / 2147483647.0);
  seedstate = seedstate - q * 2147483647.0;
  return seedstate / 2147483647.0;
}

int cellIndex(int cx, int cy, int cz) {
  return (cz * ncx + cy) * ncx + cx;
}

void initAtoms() {
  for (int c = 0; c < ncells; c = c + 1) { cellCount[c] = 0; }
  for (int cz = 0; cz < ncx; cz = cz + 1) {
    for (int cy = 0; cy < ncx; cy = cy + 1) {
      for (int cx = 0; cx < ncx; cx = cx + 1) {
        int c = cellIndex(cx, cy, cz);
        for (int a = 0; a < 4; a = a + 1) {
          int slot = c * maxatoms + cellCount[c];
          rx[slot] = (cx + 0.25 + 0.5 * (a % 2)) * 2.0;
          ry[slot] = (cy + 0.25 + 0.5 * ((a / 2) % 2)) * 2.0;
          rz[slot] = (cz + 0.25) * 2.0;
          vx[slot] = 0.1 * (prng() - 0.5);
          vy[slot] = 0.1 * (prng() - 0.5);
          vz[slot] = 0.1 * (prng() - 0.5);
          cellCount[c] = cellCount[c] + 1;
        }
      }
    }
  }
}

double computeForces() {
  double epot = 0.0;
  for (int c = 0; c < ncells; c = c + 1) {
    for (int a = 0; a < cellCount[c]; a = a + 1) {
      int s = c * maxatoms + a;
      fx[s] = 0.0;
      fy[s] = 0.0;
      fz[s] = 0.0;
    }
  }
  for (int cz = 0; cz < ncx; cz = cz + 1) {
    for (int cy = 0; cy < ncx; cy = cy + 1) {
      for (int cx = 0; cx < ncx; cx = cx + 1) {
        int c = cellIndex(cx, cy, cz);
        for (int dz = -1; dz <= 1; dz = dz + 1) {
          for (int dy = -1; dy <= 1; dy = dy + 1) {
            for (int dx = -1; dx <= 1; dx = dx + 1) {
              // periodic cell wrap + linkCell index, inline as in CoMD
              int wx = cx + dx;
              if (wx < 0) { wx = wx + ncx; }
              if (wx >= ncx) { wx = wx - ncx; }
              int wy = cy + dy;
              if (wy < 0) { wy = wy + ncx; }
              if (wy >= ncx) { wy = wy - ncx; }
              int wz = cz + dz;
              if (wz < 0) { wz = wz + ncx; }
              if (wz >= ncx) { wz = wz - ncx; }
              int n = (wz * ncx + wy) * ncx + wx;
              for (int a = 0; a < cellCount[c]; a = a + 1) {
                int sa = c * maxatoms + a;
                for (int b = 0; b < cellCount[n]; b = b + 1) {
                  int sb = n * maxatoms + b;
                  if (sb != sa) {
                    double ddx = rx[sa] - rx[sb];
                    if (ddx > 0.5 * boxlen) { ddx = ddx - boxlen; }
                    if (ddx < -0.5 * boxlen) { ddx = ddx + boxlen; }
                    double ddy = ry[sa] - ry[sb];
                    if (ddy > 0.5 * boxlen) { ddy = ddy - boxlen; }
                    if (ddy < -0.5 * boxlen) { ddy = ddy + boxlen; }
                    double ddz = rz[sa] - rz[sb];
                    if (ddz > 0.5 * boxlen) { ddz = ddz - boxlen; }
                    if (ddz < -0.5 * boxlen) { ddz = ddz + boxlen; }
                    double r2 = ddx * ddx + ddy * ddy + ddz * ddz;
                    if (r2 < cutoff2 && r2 > 0.001) {
                      double ir2 = 1.0 / r2;
                      double ir6 = ir2 * ir2 * ir2;
                      double lj = ir6 * (ir6 - 0.5);
                      double fscale = 48.0 * lj * ir2;
                      fx[sa] = fx[sa] + fscale * ddx;
                      fy[sa] = fy[sa] + fscale * ddy;
                      fz[sa] = fz[sa] + fscale * ddz;
                      epot = epot + 2.0 * ir6 * (ir6 - 1.0);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return epot;
}

// Move atoms whose position left their cell into the right cell.
void redistribute() {
  for (int c = 0; c < ncells; c = c + 1) {
    int a = 0;
    while (a < cellCount[c]) {
      int s = c * maxatoms + a;
      // periodic wrap
      if (rx[s] < 0.0) { rx[s] = rx[s] + boxlen; }
      if (rx[s] >= boxlen) { rx[s] = rx[s] - boxlen; }
      if (ry[s] < 0.0) { ry[s] = ry[s] + boxlen; }
      if (ry[s] >= boxlen) { ry[s] = ry[s] - boxlen; }
      if (rz[s] < 0.0) { rz[s] = rz[s] + boxlen; }
      if (rz[s] >= boxlen) { rz[s] = rz[s] - boxlen; }
      int cx = (int)(rx[s] / 2.0);
      int cy = (int)(ry[s] / 2.0);
      int cz = (int)(rz[s] / 2.0);
      if (cx > ncx - 1) { cx = ncx - 1; }
      if (cy > ncx - 1) { cy = ncx - 1; }
      if (cz > ncx - 1) { cz = ncx - 1; }
      int nc = cellIndex(cx, cy, cz);
      if (nc != c && cellCount[nc] < maxatoms) {
        // move slot s -> tail of nc, backfill from tail of c
        int d = nc * maxatoms + cellCount[nc];
        rx[d] = rx[s];  ry[d] = ry[s];  rz[d] = rz[s];
        vx[d] = vx[s];  vy[d] = vy[s];  vz[d] = vz[s];
        cellCount[nc] = cellCount[nc] + 1;
        int last = c * maxatoms + cellCount[c] - 1;
        rx[s] = rx[last];  ry[s] = ry[last];  rz[s] = rz[last];
        vx[s] = vx[last];  vy[s] = vy[last];  vz[s] = vz[last];
        cellCount[c] = cellCount[c] - 1;
      } else {
        a = a + 1;
      }
    }
  }
}

int main() {
  initAtoms();
  double epot = computeForces();
  for (int step = 0; step < nsteps; step = step + 1) {
    // velocity Verlet: kick-drift
    for (int c = 0; c < ncells; c = c + 1) {
      for (int a = 0; a < cellCount[c]; a = a + 1) {
        int s = c * maxatoms + a;
        vx[s] = vx[s] + 0.5 * dt * fx[s];
        vy[s] = vy[s] + 0.5 * dt * fy[s];
        vz[s] = vz[s] + 0.5 * dt * fz[s];
        rx[s] = rx[s] + dt * vx[s];
        ry[s] = ry[s] + dt * vy[s];
        rz[s] = rz[s] + dt * vz[s];
      }
    }
    redistribute();
    epot = computeForces();
    double ekin = 0.0;
    for (int c = 0; c < ncells; c = c + 1) {
      for (int a = 0; a < cellCount[c]; a = a + 1) {
        int s = c * maxatoms + a;
        vx[s] = vx[s] + 0.5 * dt * fx[s];
        vy[s] = vy[s] + 0.5 * dt * fy[s];
        vz[s] = vz[s] + 0.5 * dt * fz[s];
        ekin = ekin + 0.5 * (vx[s] * vx[s] + vy[s] * vy[s] + vz[s] * vz[s]);
      }
    }
    emit(epot);
    emit(ekin);
  }
  int total = 0;
  for (int c = 0; c < ncells; c = c + 1) { total = total + cellCount[c]; }
  emiti(total);
  return 0;
}
)";

} // namespace

const Workload& comd() {
  static const Workload w{"CoMD", {{"comd.c", kSource}}};
  return w;
}

} // namespace care::workloads
