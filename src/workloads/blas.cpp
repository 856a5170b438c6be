// REAL Level-1 BLAS (from the reference LAPACK sources' semantics) built as
// a stand-alone library module, plus an sblat1-style driver that links to
// it. The inc-stride addressing (ix = ix + incx walks) gives library code
// the computed-address profile CARE protects (paper §5.5).
#include "workloads/workloads.hpp"

namespace care::workloads {

namespace {

const char* kBlasSource = R"(
// --- REAL Level-1 BLAS -----------------------------------------------------

float sdot(int n, float* sx, int incx, float* sy, int incy) {
  float stemp = 0.0;
  if (n <= 0) { return stemp; }
  if (incx == 1 && incy == 1) {
    for (int i = 0; i < n; i = i + 1) { stemp = stemp + sx[i] * sy[i]; }
    return stemp;
  }
  int ix = 0;
  int iy = 0;
  if (incx < 0) { ix = (1 - n) * incx; }
  if (incy < 0) { iy = (1 - n) * incy; }
  for (int i = 0; i < n; i = i + 1) {
    stemp = stemp + sx[ix] * sy[iy];
    ix = ix + incx;
    iy = iy + incy;
  }
  return stemp;
}

void saxpy(int n, float sa, float* sx, int incx, float* sy, int incy) {
  if (n <= 0) { return; }
  if (sa == 0.0) { return; }
  if (incx == 1 && incy == 1) {
    for (int i = 0; i < n; i = i + 1) { sy[i] = sy[i] + sa * sx[i]; }
    return;
  }
  int ix = 0;
  int iy = 0;
  if (incx < 0) { ix = (1 - n) * incx; }
  if (incy < 0) { iy = (1 - n) * incy; }
  for (int i = 0; i < n; i = i + 1) {
    sy[iy] = sy[iy] + sa * sx[ix];
    ix = ix + incx;
    iy = iy + incy;
  }
}

void scopy(int n, float* sx, int incx, float* sy, int incy) {
  if (n <= 0) { return; }
  int ix = 0;
  int iy = 0;
  if (incx < 0) { ix = (1 - n) * incx; }
  if (incy < 0) { iy = (1 - n) * incy; }
  for (int i = 0; i < n; i = i + 1) {
    sy[iy] = sx[ix];
    ix = ix + incx;
    iy = iy + incy;
  }
}

void sswap(int n, float* sx, int incx, float* sy, int incy) {
  if (n <= 0) { return; }
  int ix = 0;
  int iy = 0;
  if (incx < 0) { ix = (1 - n) * incx; }
  if (incy < 0) { iy = (1 - n) * incy; }
  for (int i = 0; i < n; i = i + 1) {
    float stemp = sx[ix];
    sx[ix] = sy[iy];
    sy[iy] = stemp;
    ix = ix + incx;
    iy = iy + incy;
  }
}

void sscal(int n, float sa, float* sx, int incx) {
  if (n <= 0 || incx <= 0) { return; }
  int nincx = n * incx;
  for (int i = 0; i < nincx; i = i + incx) { sx[i] = sa * sx[i]; }
}

float sasum(int n, float* sx, int incx) {
  float stemp = 0.0;
  if (n <= 0 || incx <= 0) { return stemp; }
  int nincx = n * incx;
  for (int i = 0; i < nincx; i = i + incx) {
    stemp = stemp + (float)(fabs(sx[i]));
  }
  return stemp;
}

float snrm2(int n, float* sx, int incx) {
  if (n < 1 || incx < 1) { return 0.0; }
  // scaled sum of squares, as in the reference implementation
  float scale = 0.0;
  float ssq = 1.0;
  int nincx = n * incx;
  for (int i = 0; i < nincx; i = i + incx) {
    if (sx[i] != 0.0) {
      float absxi = (float)(fabs(sx[i]));
      if (scale < absxi) {
        float ratio = scale / absxi;
        ssq = 1.0 + ssq * ratio * ratio;
        scale = absxi;
      } else {
        float ratio = absxi / scale;
        ssq = ssq + ratio * ratio;
      }
    }
  }
  return scale * (float)(sqrt(ssq));
}

int isamax(int n, float* sx, int incx) {
  if (n < 1 || incx <= 0) { return -1; }
  if (n == 1) { return 0; }
  int imax = 0;
  if (incx == 1) {
    float smax = (float)(fabs(sx[0]));
    for (int i = 1; i < n; i = i + 1) {
      float v = (float)(fabs(sx[i]));
      if (v > smax) {
        imax = i;
        smax = v;
      }
    }
    return imax;
  }
  int ix = incx;
  float smax2 = (float)(fabs(sx[0]));
  for (int i = 1; i < n; i = i + 1) {
    float v = (float)(fabs(sx[ix]));
    if (v > smax2) {
      imax = i;
      smax2 = v;
    }
    ix = ix + incx;
  }
  return imax;
}

void srot(int n, float* sx, int incx, float* sy, int incy, float c,
          float s) {
  if (n <= 0) { return; }
  int ix = 0;
  int iy = 0;
  if (incx < 0) { ix = (1 - n) * incx; }
  if (incy < 0) { iy = (1 - n) * incy; }
  for (int i = 0; i < n; i = i + 1) {
    float stemp = c * sx[ix] + s * sy[iy];
    sy[iy] = c * sy[iy] - s * sx[ix];
    sx[ix] = stemp;
    ix = ix + incx;
    iy = iy + incy;
  }
}

// Construct a Givens rotation; a,b,c,s passed as 1-element arrays.
void srotg(float* a, float* b, float* c, float* s) {
  float sa = a[0];
  float sb = b[0];
  float roe = sb;
  if ((float)(fabs(sa)) > (float)(fabs(sb))) { roe = sa; }
  float scale = (float)(fabs(sa)) + (float)(fabs(sb));
  if (scale == 0.0) {
    c[0] = 1.0;
    s[0] = 0.0;
    a[0] = 0.0;
    b[0] = 0.0;
    return;
  }
  float ra = sa / scale;
  float rb = sb / scale;
  float r = scale * (float)(sqrt(ra * ra + rb * rb));
  if (roe < 0.0) { r = -r; }
  c[0] = sa / r;
  s[0] = sb / r;
  float z = 1.0;
  if ((float)(fabs(sa)) > (float)(fabs(sb))) { z = s[0]; }
  if ((float)(fabs(sb)) >= (float)(fabs(sa)) && c[0] != 0.0) {
    z = 1.0 / c[0];
  }
  a[0] = r;
  b[0] = z;
}

// Modified-Givens transform; sparam[0] is the flag.
void srotm(int n, float* sx, int incx, float* sy, int incy, float* sparam) {
  float sflag = sparam[0];
  if (n <= 0 || sflag + 2.0 == 0.0) { return; }
  int ix = 0;
  int iy = 0;
  if (incx < 0) { ix = (1 - n) * incx; }
  if (incy < 0) { iy = (1 - n) * incy; }
  if (sflag == 0.0) {
    float sh12 = sparam[3];
    float sh21 = sparam[2];
    for (int i = 0; i < n; i = i + 1) {
      float w = sx[ix];
      float z = sy[iy];
      sx[ix] = w + z * sh12;
      sy[iy] = w * sh21 + z;
      ix = ix + incx;
      iy = iy + incy;
    }
    return;
  }
  if (sflag > 0.0) {
    float sh11 = sparam[1];
    float sh22 = sparam[4];
    for (int i = 0; i < n; i = i + 1) {
      float w = sx[ix];
      float z = sy[iy];
      sx[ix] = w * sh11 + z;
      sy[iy] = -w + sh22 * z;
      ix = ix + incx;
      iy = iy + incy;
    }
    return;
  }
  float sh11 = sparam[1];
  float sh12 = sparam[3];
  float sh21 = sparam[2];
  float sh22 = sparam[4];
  for (int i = 0; i < n; i = i + 1) {
    float w = sx[ix];
    float z = sy[iy];
    sx[ix] = w * sh11 + z * sh12;
    sy[iy] = w * sh21 + z * sh22;
    ix = ix + incx;
    iy = iy + incy;
  }
}
)";

const char* kSblat1Source = R"(
// sblat1-style driver for the REAL Level-1 BLAS library module.
extern float sdot(int n, float* sx, int incx, float* sy, int incy);
extern void saxpy(int n, float sa, float* sx, int incx, float* sy, int incy);
extern void scopy(int n, float* sx, int incx, float* sy, int incy);
extern void sswap(int n, float* sx, int incx, float* sy, int incy);
extern void sscal(int n, float sa, float* sx, int incx);
extern float sasum(int n, float* sx, int incx);
extern float snrm2(int n, float* sx, int incx);
extern int isamax(int n, float* sx, int incx);
extern void srot(int n, float* sx, int incx, float* sy, int incy, float c,
                 float s);
extern void srotg(float* a, float* b, float* c, float* s);
extern void srotm(int n, float* sx, int incx, float* sy, int incy,
                  float* sparam);

float xa[64];
float ya[64];
float wa[64];
float sa1[1];
float sb1[1];
float sc1[1];
float ss1[1];
float sparam[5];

void fill(int n) {
  for (int i = 0; i < n; i = i + 1) {
    xa[i] = (float)(0.5 * (i + 1));
    ya[i] = (float)(0.25 * (i + 1) - 3.0);
    wa[i] = 0.0;
  }
}

int main() {
  // Strides exercised by the real sblat1: 1, 2, and negatives.
  for (int pass = 0; pass < 3; pass = pass + 1) {
    int incx = pass == 0 ? 1 : (pass == 1 ? 2 : -1);
    int incy = pass == 2 ? -1 : 1;
    int n = pass == 1 ? 20 : 40;
    fill(64);
    emit(sdot(n, xa, incx, ya, incy));
    saxpy(n, 2.5, xa, incx, ya, incy);
    emit(sasum(n, ya, 1));
    scopy(n, xa, incx, wa, 1);
    emit(snrm2(n, wa, 1));
    sswap(n, xa, 1, ya, 1);
    emit(sdot(n, xa, 1, ya, 1));
    sscal(n, 0.5, xa, 1);
    emit(sasum(n, xa, 1));
    emiti(isamax(n, ya, 1));
    srot(n, xa, 1, ya, 1, 0.8, 0.6);
    emit(sdot(n, xa, 1, xa, 1));
  }
  // srotg: the classic 3-4-5 rotation.
  sa1[0] = 3.0;
  sb1[0] = 4.0;
  srotg(sa1, sb1, sc1, ss1);
  emit(sa1[0]);  // r = 5
  emit(sc1[0]);  // c = 0.6
  emit(ss1[0]);  // s = 0.8
  // srotm with the full-matrix flag.
  fill(64);
  sparam[0] = -1.0;
  sparam[1] = 0.9;
  sparam[2] = -0.2;
  sparam[3] = 0.3;
  sparam[4] = 1.1;
  srotm(32, xa, 2, ya, 1, sparam);
  emit(sasum(32, xa, 2));
  emit(sasum(32, ya, 1));
  return 0;
}
)";

} // namespace

const Workload& blasLibrary() {
  static const Workload w{"BLAS", {{"blas.f", kBlasSource}}};
  return w;
}

const Workload& sblat1Driver() {
  static const Workload w{"sblat1", {{"sblat1.f", kSblat1Source}}};
  return w;
}

} // namespace care::workloads
