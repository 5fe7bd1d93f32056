# Applied at ctest time, after gtest discovery populates the
# TEST_LIST variables (see tests/CMakeLists.txt). The threading and
# determinism tests carry `concurrency` so CI can rerun exactly them
# under ThreadSanitizer; the GEMM-engine/conv-lowering batteries carry
# `kernels` so the ASan job can target the pack-buffer paths; the
# whole-suite batteries add `slow` so developers can skip them locally
# with `ctest -LE slow`. Everything stays in `tier1`.
foreach(test IN LISTS concurrency_fast_TESTS)
    # The telemetry concurrency battery is also part of the
    # observability suite (CI smoke-tests the instrumentation paths
    # with `ctest -L observability`).
    if(test MATCHES "Telemetry")
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;concurrency;observability")
    else()
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;concurrency")
    endif()
endforeach()
foreach(test IN LISTS concurrency_battery_TESTS)
    # The GEMM determinism battery is both a concurrency test (it races
    # the tile grid under TSan) and a kernels test.
    if(test MATCHES "GemmEngine")
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;concurrency;kernels;slow")
    else()
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;concurrency;slow")
    endif()
endforeach()
foreach(test IN LISTS kernel_battery_TESTS)
    set_tests_properties("${test}" PROPERTIES
        LABELS "tier1;kernels")
endforeach()
foreach(test IN LISTS serving_fast_TESTS)
    set_tests_properties("${test}" PROPERTIES
        LABELS "tier1;serving")
endforeach()
foreach(test IN LISTS serving_battery_TESTS)
    # The multi-client battery is the serving layer's race detector
    # target, and the Session-vs-FrozenPlan battery drives the shared
    # executor's drain loop from both callers at inter-op 2/4; both
    # join `concurrency` so both TSan selections (-L concurrency and
    # -L serving) cover them.
    if(test MATCHES "Concurrent|SessionVsFrozen")
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;serving;concurrency;slow")
    else()
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;serving;slow")
    endif()
endforeach()
foreach(test IN LISTS pipeline_fast_TESTS)
    set_tests_properties("${test}" PROPERTIES
        LABELS "tier1;pipeline")
    # Waits on a producer thread with a wall-clock deadline; under
    # `ctest -j` the producer can miss it, so it runs alone.
    if(test MATCHES "NextThrowsAfterStopOnceDrained")
        set_tests_properties("${test}" PROPERTIES RUN_SERIAL TRUE)
    endif()
endforeach()
foreach(test IN LISTS pipeline_battery_TESTS)
    # The queue hammers are the pipeline's race-detector targets; they
    # join `concurrency` so both TSan selections (-L concurrency and
    # -L pipeline) cover them. The all-workloads bit-identity battery
    # is wall-clock heavy, hence `slow`.
    if(test MATCHES "Concurrent")
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;pipeline;concurrency")
    else()
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;pipeline;slow")
    endif()
endforeach()
foreach(test IN LISTS observability_TESTS)
    # The overhead-budget test is a wall-clock assertion; RUN_SERIAL
    # keeps `ctest -j` from co-scheduling 400 other tests against it
    # (the contention, not the instrumentation, is what would trip the
    # 2% budget).
    if(test MATCHES "Overhead")
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;observability" RUN_SERIAL TRUE)
    else()
        set_tests_properties("${test}" PROPERTIES
            LABELS "tier1;observability")
    endif()
endforeach()
foreach(test IN LISTS fathom_tests_TESTS)
    # Four paper-shape tests judge wall-clock ratios whose margins
    # narrowed once convolution got faster: Fig. 4's vgg-residual
    # profile distance (bound 0.05), Sec. V-A's framework share of
    # residual's step (bound 0.05), Fig. 1's Conv2D stationarity and
    # Fig. 3's convolution share of the conv nets (bound 0.5).
    # Under `ctest -j` the other tests slow the framework and the
    # memory-bound ops more than the convolutions, which shifts every
    # repetition the same way, so these run alone.
    if(test MATCHES "PaperShapes\\.(Fig1_|Fig3_ConvNets|Fig4_|SecVA_)")
        set_tests_properties("${test}" PROPERTIES RUN_SERIAL TRUE)
    endif()
endforeach()
