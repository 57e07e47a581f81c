#pragma once

// The wall clock behind every timing record, modelled on CRK-HACC's
// MPI_Wtime()-based timers (paper §3.4.4).  The records themselves live
// where the work is launched: per-kernel walls (upGeo, upCor, upBarEx,
// upBarAc, upBarAcF, upBarDu, upBarDuF, grav_pp) in xsycl::Queue's
// LaunchStats history, per-stage walls in core::Solver::stage_totals().

namespace hacc::util {

// Monotonic seconds since an arbitrary epoch (MPI_Wtime stand-in).
double wtime();

}  // namespace hacc::util
