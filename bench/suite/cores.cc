#include "cores.h"

#include <pthread.h>
#include <sched.h>

namespace fathom::bench_suite {

const std::vector<int>&
UsableCores()
{
    static const std::vector<int> cores = [] {
        std::vector<int> found;
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &mask)) {
                    found.push_back(cpu);
                }
            }
        }
        return found;
    }();
    return cores;
}

int
RotationCore(int index)
{
    const std::vector<int>& cores = UsableCores();
    if (cores.empty()) {
        return -1;
    }
    return cores[static_cast<std::size_t>(index) % cores.size()];
}

bool
PinThisThread(const std::vector<int>& cores)
{
    const std::vector<int>& chosen = cores.empty() ? UsableCores() : cores;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    int count = 0;
    for (const int cpu : chosen) {
        if (cpu >= 0 && cpu < CPU_SETSIZE) {
            CPU_SET(cpu, &mask);
            ++count;
        }
    }
    return count > 0 &&
           pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
}

}  // namespace fathom::bench_suite
