/**
 * @file
 * Fig. 15: CDF of bytes encrypted by Cache1, with the AES-NI break-even
 * granularity marker.
 */

#include "bench_common.hh"
#include "model/accelerometer.hh"
#include "workload/request_factory.hh"

using namespace accel;

int
main()
{
    bench::banner("Fig. 15: CDF of bytes encrypted in Cache1");

    auto sizes = workload::encryptionSizes(workload::ServiceId::Cache1);
    bench::printCdf("Cache1 encryption granularities", *sizes);

    // The AES-NI break-even marker: with Table 6's o0=10, L=3, A=6 and
    // Cache1's software-AES cost per byte (Table 6's kernel cycles per
    // offload over the mean encryption size), speedup > 1 from ~1 B.
    workload::CaseStudy cs = workload::aesNiCaseStudy();
    double cb = cs.experiment.workload.cyclesPerByte;
    model::OffloadProfit profit{cb, 1.0};
    double g_star =
        profit.breakEvenSpeedup(model::ThreadingDesign::Sync,
                                cs.publishedParams);
    std::cout << "Cache1 workload Cb (Table 6 kernel cycles per offload "
                 "over mean encryption size) = "
              << fmtF(cb, 2)
              << " cycles/B -> min AES-NI granularity for speedup > 1: "
              << fmtF(g_star, 1) << " B (paper: >= 1 B)\n";
    std::cout << "fraction of Cache1 encryptions above break-even: "
              << fmtPct(sizes->fractionAtLeast(g_star), 1)
              << " (paper: all offloads improve speedup)\n";
    return 0;
}
