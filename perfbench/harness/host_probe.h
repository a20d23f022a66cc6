// The host-speed probe. On a shared virtual machine the CPU a run gets can
// slow by up to 1.8x, for a fraction of a second to minutes at a time, while
// another tenant loads the same physical core; every timing slows with it.
// The harness times this fixed loop every few milliseconds of measured work,
// and run.py scales each timing by the reference time over the probes timed
// on either side of it (benchlib.normalized), so a run measures the code
// rather than, for the most part, the phase the host was in.
#pragma once

namespace perfbench {

/// Milliseconds one fixed loop takes on the calling thread's CPU now. The
/// loop is throughput-bound like the simulator's kernels: four independent
/// xorshift streams, three loads from a 256 KiB table (L2-resident) and an
/// unpredictable branch per iteration. A latency-bound loop (one dependent
/// multiply chain) does not see the slow phases.
double host_probe_ms();

}  // namespace perfbench
