// The paper's evaluation workloads (Table 1), re-implemented in MiniC.
//
// Each re-implementation keeps the computational core and — critically for
// CARE — the *address-computation structure* of the original mini-app:
// HPCCG/miniFE do sparse CG with CSR indirection, CoMD/miniMD do
// Lennard-Jones force loops over cell lists / neighbor lists, GTC-P does
// PIC charge scatter/gather with the paper's Fig. 2 stencil. Problem sizes
// are scaled so a golden run is ~10^6 simulated instructions (campaigns of
// thousands of injections stay tractable on one host; see DESIGN.md).
#pragma once

#include <string>
#include <vector>

#include "care/driver.hpp"

namespace care::workloads {

struct Workload {
  std::string name;
  std::vector<core::SourceFile> sources;
};

const Workload& hpccg();
const Workload& comd();
const Workload& minimd();
const Workload& minife();
const Workload& gtcp();

/// All five (Tables 2-5).
std::vector<const Workload*> allWorkloads();
/// The four the paper evaluates CARE on (§5 skips miniFE).
std::vector<const Workload*> careWorkloads();

/// REAL Level-1 BLAS as a stand-alone library module, plus the sblat1-style
/// driver that links against it (§5.5).
const Workload& blasLibrary();
const Workload& sblat1Driver();

} // namespace care::workloads
