/**
 * @file
 * Where bench_suite's threads run.
 *
 * A shared host slows its cores unequally and changes which ones over
 * time (a busy neighbour on a sibling hardware thread), so a thread the
 * scheduler leaves on one core times that core for a whole run, and runs
 * differ by where they landed. The timed windows therefore visit every
 * usable core in turn, which makes each run sample the same mix of cores.
 */
#ifndef FATHOM_BENCH_SUITE_CORES_H
#define FATHOM_BENCH_SUITE_CORES_H

#include <vector>

namespace fathom::bench_suite {

/** The cores this process may use, as the first call found them. */
const std::vector<int>& UsableCores();

/**
 * @return the core window @p index (>= 0) runs on: the usable cores in
 * turn, or -1 when they are unknown.
 */
int RotationCore(int index);

/**
 * Confines the calling thread to @p cores, or to every usable core when
 * @p cores is empty. Threads it creates afterwards inherit the mask.
 * @return false when the system refused.
 */
bool PinThisThread(const std::vector<int>& cores);

}  // namespace fathom::bench_suite

#endif  // FATHOM_BENCH_SUITE_CORES_H
